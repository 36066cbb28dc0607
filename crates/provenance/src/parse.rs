//! Text format for provenance polynomials.
//!
//! COBRA's architecture (paper Fig. 4) takes polynomials "generated by any
//! provenance engine". This module is the interchange point: a parser for
//! the textual form that [`Polynomial::display`] prints, so external
//! engines can hand COBRA their provenance as text.
//!
//! Grammar (whitespace-insensitive):
//!
//! ```text
//! polyset := line*                     # one polynomial per non-empty line
//! line    := label '=' poly            # label must not contain '='
//! poly    := ['-'] term (('+'|'-') term)*
//! term    := factor ('*' factor)*
//! factor  := number | ident ('^' uint)? | '(' poly ')'
//! number  := decimal ['/' decimal]     # exact rational, e.g. 208.8, 1/3
//! ```
//!
//! A `-` may also stand before any factor (printers emit `+ -5*x`).
//!
//! # Cost
//!
//! The text is untrusted and can be large (a `prepare` request carries
//! it), so the parser's cost is part of its contract:
//!
//! * **One pass.** A single cursor walks the bytes; there is no token
//!   list, identifiers are interned from the borrowed slice and number
//!   literals parsed from it. Error offsets are positions of that cursor,
//!   also across the lines of a polynomial set.
//! * **One canonicalisation per polynomial.** Each `coeff*var^e*…` product
//!   is folded straight into one `(monomial, coefficient)` pair — one
//!   allocation — and pushed on the polynomial's term list; the list is
//!   sorted, merged and stripped of zeros once, at the end of the sum.
//!   Printed polynomials are already sorted, so that sort sees one run.
//!   Parsing is linear in the text, not quadratic in the number of terms.
//! * **Polynomial algebra only inside parentheses.** A parenthesised
//!   factor is parsed to a polynomial of its own and the product
//!   distributes over it; nothing else multiplies or adds polynomials.
//! * **Bounded and checked.** Parentheses nest at most 256 deep and unary
//!   minus is a sign flip in a loop, so no input recurses without bound; a
//!   product of parenthesised sums expands to at most 65,536 terms, so 30
//!   KB of text cannot ask for 10⁹ of them; coefficient products and sums
//!   and exponent sums are checked. Each violation is a [`ParseError`] at
//!   the offending byte, never a panic, a stack overflow, an exhausted
//!   memory or a wrapped value.

use crate::monomial::Monomial;
use crate::poly::Polynomial;
use crate::polyset::PolySet;
use crate::var::{Var, VarRegistry};
use cobra_util::Rat;
use std::fmt;

/// A parse failure with position information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset in the input where the error was detected.
    pub offset: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

fn error(offset: usize, message: impl Into<String>) -> ParseError {
    ParseError {
        offset,
        message: message.into(),
    }
}

/// A product or sum here leaves the representable range.
fn overflow(offset: usize) -> ParseError {
    error(
        offset,
        "overflow: coefficients are reduced i128 fractions, exponents u32",
    )
}

/// Deepest accepted nesting of parentheses: each level is one turn of the
/// `poly → term → poly` recursion, and 256 of them fit a 2 MiB server
/// connection thread many times over.
const MAX_NESTING: usize = 256;

/// Most terms one product of parenthesised sums may expand to, counted
/// before equal monomials merge: `(x1+…+x1000)*(y1+…+y1000)` (10⁶) is
/// refused at its second `(`, before anything is multiplied.
const MAX_PRODUCT_TERMS: usize = 1 << 16;

/// `product · inner` for the parenthesised factor opened at `open` (the
/// factor itself starts at `at`), refused past [`MAX_PRODUCT_TERMS`]. Out
/// of line: the `poly → term → poly` recursion keeps its frames small.
fn expand(
    product: &Polynomial<Rat>,
    inner: &Polynomial<Rat>,
    open: usize,
    at: usize,
) -> Result<Polynomial<Rat>, ParseError> {
    let terms = product.num_terms().saturating_mul(inner.num_terms());
    if terms > MAX_PRODUCT_TERMS {
        return Err(error(
            open,
            format!("a product of {terms} terms; at most {MAX_PRODUCT_TERMS} are expanded"),
        ));
    }
    product.checked_mul(inner).ok_or_else(|| overflow(at))
}

/// One product of a sum with the offset it starts at (for the report when
/// adding it to an equal monomial overflows).
type Term = (Monomial, Rat, usize);

/// The single cursor over the input.
struct Parser<'a> {
    src: &'a str,
    pos: usize,
    depth: usize,
    reg: &'a mut VarRegistry,
    /// The variable factors of the product being read, kept canonical
    /// (sorted by variable, equal variables merged) and reused from one
    /// product to the next.
    factors: Vec<(Var, u32)>,
}

impl Parser<'_> {
    fn byte(&self, at: usize) -> Option<u8> {
        self.src.as_bytes().get(at).copied()
    }

    /// Skips whitespace and returns the byte the cursor then stands on.
    fn peek(&mut self) -> Option<u8> {
        while self.byte(self.pos).is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
        self.byte(self.pos)
    }

    fn eat(&mut self, byte: u8) -> bool {
        let found = self.peek() == Some(byte);
        if found {
            self.pos += 1;
        }
        found
    }

    /// The error for input that cannot continue here. The cursor only ever
    /// steps over ASCII, so it stands on a character boundary.
    fn unexpected(&mut self, expected: &str) -> ParseError {
        self.peek();
        let found = match self.src[self.pos..].chars().next() {
            Some(c) => format!("{c:?}"),
            None => "end of input".to_owned(),
        };
        error(self.pos, format!("expected {expected}, found {found}"))
    }

    /// `poly := term (('+'|'-') term)*`, canonicalised once at its end (a
    /// leading `-` is the first term's unary minus).
    fn poly(&mut self) -> Result<Polynomial<Rat>, ParseError> {
        let mut terms: Vec<Term> = Vec::new();
        let mut negate = false;
        loop {
            self.term(negate, &mut terms)?;
            negate = match self.peek() {
                Some(b'+') => false,
                Some(b'-') => true,
                _ => break,
            };
            self.pos += 1;
        }
        Polynomial::checked_from_terms(terms).map_err(overflow)
    }

    /// `term := factor ('*' factor)*`, folded into one `(monomial,
    /// coefficient)` on `out` — or, when a factor is parenthesised, into
    /// that factor's terms each multiplied by the rest of the product.
    fn term(&mut self, mut negate: bool, out: &mut Vec<Term>) -> Result<(), ParseError> {
        self.peek();
        let start = self.pos;
        let mut coeff: Option<Rat> = None;
        let mut nested: Option<Polynomial<Rat>> = None;
        self.factors.clear();
        loop {
            while self.eat(b'-') {
                negate = !negate;
            }
            let at = self.pos;
            match self.peek() {
                Some(b'0'..=b'9' | b'.') => {
                    let number = self.number()?;
                    coeff = Some(match coeff {
                        None => number,
                        Some(c) => c.checked_mul(number).ok_or_else(|| overflow(at))?,
                    });
                }
                Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                    let var = self.ident();
                    let exp = if self.eat(b'^') { self.exponent()? } else { 1 };
                    match self.factors.binary_search_by_key(&var, |&(v, _)| v) {
                        Ok(i) => {
                            let sum = self.factors[i].1.checked_add(exp);
                            self.factors[i].1 = sum.ok_or_else(|| overflow(at))?;
                        }
                        Err(i) => self.factors.insert(i, (var, exp)),
                    }
                }
                Some(b'(') => {
                    let open = self.pos;
                    let inner = self.parenthesised()?;
                    nested = Some(match nested {
                        None => inner,
                        Some(product) => expand(&product, &inner, open, at)?,
                    });
                }
                _ => return Err(self.unexpected("a number, a variable or '('")),
            }
            if !self.eat(b'*') {
                break;
            }
        }
        // A product of literals is non-negative, so negating it cannot
        // leave `i128`.
        let coeff = coeff.unwrap_or(Rat::ONE);
        let coeff = if negate { -coeff } else { coeff };
        let monomial = Monomial::from_canonical(&self.factors);
        let Some(nested) = nested else {
            out.push((monomial, coeff, start));
            return Ok(());
        };
        for (m, c) in nested.terms() {
            let product = m.checked_mul(&monomial).zip(c.checked_mul(coeff));
            let (m, c) = product.ok_or_else(|| overflow(start))?;
            out.push((m, c, start));
        }
        Ok(())
    }

    /// `'(' poly ')'` with the cursor on the `(`.
    fn parenthesised(&mut self) -> Result<Polynomial<Rat>, ParseError> {
        if self.depth == MAX_NESTING {
            return Err(error(
                self.pos,
                format!("parentheses nested deeper than {MAX_NESTING}"),
            ));
        }
        self.pos += 1;
        self.depth += 1;
        // The nested sum's products use `factors` too; ours wait here.
        let outer = std::mem::take(&mut self.factors);
        let inner = self.poly()?;
        self.factors = outer;
        self.depth -= 1;
        if !self.eat(b')') {
            return Err(self.unexpected("')'"));
        }
        Ok(inner)
    }

    /// `number := decimal ['/' decimal]`, parsed from the borrowed slice.
    fn number(&mut self) -> Result<Rat, ParseError> {
        let start = self.pos;
        let mut seen_dot = false;
        while let Some(b) = self.byte(self.pos) {
            match b {
                b'0'..=b'9' => {}
                b'.' if !seen_dot => seen_dot = true,
                _ => break,
            }
            self.pos += 1;
        }
        // A '/' is part of the literal only when a digit follows it.
        if self.byte(self.pos) == Some(b'/')
            && self.byte(self.pos + 1).is_some_and(|b| b.is_ascii_digit())
        {
            self.pos += 2;
            while self.byte(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = &self.src[start..self.pos];
        Rat::parse(text).map_err(|_| error(start, format!("invalid number literal {text:?}")))
    }

    /// The exponent after a `^`: a number literal that is a positive
    /// integer.
    fn exponent(&mut self) -> Result<u32, ParseError> {
        let bad = "expected positive integer exponent";
        if !matches!(self.peek(), Some(b'0'..=b'9' | b'.')) {
            return Err(error(self.pos, bad));
        }
        let at = self.pos;
        let exp = self.number()?;
        if !exp.is_integer() || exp.numer() <= 0 {
            return Err(error(at, bad));
        }
        u32::try_from(exp.numer()).map_err(|_| error(at, "exponent too large"))
    }

    /// An identifier with the cursor on its first byte, interned.
    fn ident(&mut self) -> Var {
        let start = self.pos;
        while self
            .byte(self.pos)
            .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'#')
        {
            self.pos += 1;
        }
        self.reg.var(&self.src[start..self.pos])
    }
}

/// Parses the polynomial that fills `src[from..]`; error offsets are
/// offsets into `src`.
fn parse_from(
    src: &str,
    from: usize,
    reg: &mut VarRegistry,
) -> Result<Polynomial<Rat>, ParseError> {
    let mut parser = Parser {
        src,
        pos: from,
        depth: 0,
        reg,
        factors: Vec::new(),
    };
    let poly = parser.poly()?;
    if parser.peek().is_some() {
        return Err(parser.unexpected("'+', '-', '*' or the end of the polynomial"));
    }
    Ok(poly)
}

/// Parses a single polynomial, interning variables into `reg`.
pub fn parse_poly(src: &str, reg: &mut VarRegistry) -> Result<Polynomial<Rat>, ParseError> {
    parse_from(src, 0, reg)
}

/// Parses a polynomial set: one `label = poly` per non-empty line.
/// Lines starting with `#` are comments. Labels must not contain `=`.
pub fn parse_polyset(src: &str, reg: &mut VarRegistry) -> Result<PolySet<Rat>, ParseError> {
    let mut set = PolySet::new();
    let mut next_line = 0;
    for raw in src.split_inclusive('\n') {
        let indented = raw.trim_start();
        let at = next_line + raw.len() - indented.len();
        next_line += raw.len();
        let line = indented.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((label, _)) = line.split_once('=') else {
            return Err(error(
                at,
                format!("expected 'label = polynomial', got {line:?}"),
            ));
        };
        // The text up to this line's end, read from behind the `=`: one
        // cursor position means one offset, in any line.
        let poly = parse_from(&src[..at + line.len()], at + label.len() + 1, reg)?;
        set.push(label.trim(), poly);
    }
    Ok(set)
}

/// Reads a polynomial set from a file in the text interchange format.
///
/// # Errors
/// I/O errors are folded into [`ParseError`] with offset 0.
pub fn read_polyset_file(
    path: impl AsRef<std::path::Path>,
    reg: &mut VarRegistry,
) -> Result<PolySet<Rat>, ParseError> {
    let src = std::fs::read_to_string(path.as_ref()).map_err(|e| ParseError {
        offset: 0,
        message: format!("cannot read {}: {e}", path.as_ref().display()),
    })?;
    parse_polyset(&src, reg)
}

/// Writes a polynomial set to a file in the text interchange format
/// (`label = polynomial` lines, re-readable by [`read_polyset_file`]).
pub fn write_polyset_file(
    path: impl AsRef<std::path::Path>,
    set: &PolySet<Rat>,
    reg: &VarRegistry,
) -> std::io::Result<()> {
    use std::io::Write;
    let file = std::fs::File::create(path)?;
    let mut out = std::io::BufWriter::new(file);
    write!(out, "{}", set.display(reg))?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(s: &str) -> Rat {
        Rat::parse(s).unwrap()
    }

    #[test]
    fn parses_paper_polynomial() {
        let mut reg = VarRegistry::new();
        let p = parse_poly(
            "208.8 * p1 * m1 + 240 * p1 * m3 + 127.4 * f1 * m1 + 114.45 * f1 * m3",
            &mut reg,
        )
        .unwrap();
        assert_eq!(p.num_terms(), 4);
        let p1 = reg.lookup("p1").unwrap();
        let m3 = reg.lookup("m3").unwrap();
        assert_eq!(
            p.coeff_of(&Monomial::from_pairs([(p1, 1), (m3, 1)])),
            rat("240")
        );
    }

    #[test]
    fn round_trip_display_parse() {
        let mut reg = VarRegistry::new();
        let src = "2*x^2*y + 0.5*z + 7";
        let p = parse_poly(src, &mut reg).unwrap();
        let printed = p.display(&reg).to_string();
        let mut reg2 = VarRegistry::new();
        let q = parse_poly(&printed, &mut reg2).unwrap();
        // Same registry order because display preserves first-occurrence order.
        assert_eq!(p.num_terms(), q.num_terms());
        assert_eq!(printed, q.display(&reg2).to_string());
    }

    #[test]
    fn negative_and_parenthesized() {
        let mut reg = VarRegistry::new();
        let p = parse_poly("-(x - 2) * (x + 2)", &mut reg).unwrap();
        // -(x² − 4) = −x² + 4
        let x = reg.lookup("x").unwrap();
        assert_eq!(p.coeff_of(&Monomial::from_pairs([(x, 2)])), rat("-1"));
        assert_eq!(p.coeff_of(&Monomial::one()), rat("4"));
    }

    #[test]
    fn fractions_and_exponents() {
        let mut reg = VarRegistry::new();
        let p = parse_poly("1/3 * x^3", &mut reg).unwrap();
        let x = reg.lookup("x").unwrap();
        assert_eq!(p.coeff_of(&Monomial::from_pairs([(x, 3)])), Rat::new(1, 3));
    }

    #[test]
    fn rejects_malformed_input() {
        let mut reg = VarRegistry::new();
        for src in ["", "x +", "* x", "x ^ y", "(x", "2 2", "x $ y"] {
            assert!(parse_poly(src, &mut reg).is_err(), "should reject {src:?}");
        }
    }

    #[test]
    fn error_offsets_point_at_problem() {
        let mut reg = VarRegistry::new();
        let err = parse_poly("x + $", &mut reg).unwrap_err();
        assert_eq!(err.offset, 4);
    }

    /// Every accepted spelling, next to the same expression built through
    /// the polynomial algebra the parser no longer uses for flat products.
    #[test]
    fn accepted_forms_equal_the_algebra() {
        let mut reg = VarRegistry::new();
        let [x, y] = [reg.var("x"), reg.var("y")].map(Polynomial::<Rat>::var);
        let k = |s: &str| Polynomial::constant(rat(s));
        let cases = [
            ("(x + 1)*(y - 2)", x.add(&k("1")).mul(&y.sub(&k("2")))),
            ("-(x - y)*3", x.sub(&y).mul(&k("3")).neg()),
            ("2*y + -5*x", k("2").mul(&y).add(&k("5").mul(&x).neg())),
            ("2*3*x*x^2", k("6").mul(&x).mul(&x).mul(&x)),
            (
                "1/3*x",
                Polynomial::term(Monomial::var(Var(0)), Rat::new(1, 3)),
            ),
            ("- - x - -y", x.add(&y)),
            ("x*-y", x.mul(&y).neg()),
            ("x*(y + 1)*x - x^2*y", x.mul(&x)),
            (
                "2*(x + y)*(x - y)*3",
                k("6").mul(&x.mul(&x).sub(&y.mul(&y))),
            ),
            ("((x))", x.clone()),
            ("x - x", Polynomial::zero()),
            ("0*x + y", y.clone()),
            ("x^4/2", x.mul(&x)),
            (" 1.50 *\tx\n+ .5 ", k("1.5").mul(&x).add(&k("0.5"))),
        ];
        for (src, want) in cases {
            assert_eq!(parse_poly(src, &mut reg).as_ref(), Ok(&want), "{src:?}");
        }
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn rejected_forms_and_their_offsets() {
        let mut reg = VarRegistry::new();
        for (src, offset) in [
            ("(x - y)^2", 7),
            ("2*x/", 3),
            ("1/x", 1),
            ("1.5/3*x", 0),
            ("+ x", 0),
            ("x + + y", 4),
            ("x^0", 2),
            ("x^-2", 2),
            ("x^1.5", 2),
            ("x^4294967296", 2),
            ("x y", 2),
            ("(x + y", 6),
            ("x + y)", 5),
            ("x * é", 4),
            ("99999999999999999999999999999999999999.5*x", 0),
        ] {
            let err = parse_poly(src, &mut reg).unwrap_err();
            assert_eq!(err.offset, offset, "{src:?}: {err}");
        }
    }

    /// Text that used to end the process (stack overflow) is a typed error.
    #[test]
    fn unbounded_nesting_is_a_parse_error_not_a_stack_overflow() {
        let mut reg = VarRegistry::new();
        let err = parse_poly(&"(".repeat(1_000_000), &mut reg).unwrap_err();
        assert_eq!(err.offset, MAX_NESTING);
        assert!(err.message.contains("nested deeper than 256"), "{err}");

        // a run of unary minus is a loop: the error is the missing factor
        let err = parse_poly(&"-".repeat(1_000_000), &mut reg).unwrap_err();
        assert_eq!(err.offset, 1_000_000);
        let src = format!("{}x", "-".repeat(1_000_001));
        let x = Polynomial::var(reg.var("x"));
        assert_eq!(parse_poly(&src, &mut reg), Ok(x.neg()));

        // the cap itself parses, on a quarter of a connection thread's stack
        let nested = format!(
            "{}x + 1{}",
            "(".repeat(MAX_NESTING),
            ")".repeat(MAX_NESTING)
        );
        let parsed = std::thread::Builder::new()
            .stack_size(512 * 1024)
            .spawn(move || {
                let mut reg = VarRegistry::new();
                parse_poly(&nested, &mut reg).map(|p| p.num_terms())
            })
            .unwrap()
            .join()
            .unwrap();
        assert_eq!(parsed, Ok(2));
    }

    /// A product that would expand past the cap is refused at the `(` of
    /// the factor that crosses it, before any term is multiplied.
    #[test]
    fn a_product_of_sums_is_capped_before_it_expands() {
        let sum = |v: &str, n: usize| {
            let vars: Vec<String> = (1..=n).map(|i| format!("{v}{i}")).collect();
            format!("({})", vars.join("+"))
        };
        let src = format!("{}*{}*{}", sum("x", 1000), sum("y", 1000), sum("z", 1000));
        let mut reg = VarRegistry::new();
        let started = std::time::Instant::now();
        let err = parse_poly(&src, &mut reg).unwrap_err();
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(err.offset, src.find(")*(").unwrap() + 2, "{err}");
        assert!(err.message.contains("1000000 terms"), "{err}");
        // the cap itself expands; one factor more does not
        let at_cap = format!("{}*{}", sum("x", 256), sum("y", 256));
        assert_eq!(parse_poly(&at_cap, &mut reg).unwrap().num_terms(), 65_536);
        let err = parse_poly(&format!("{at_cap}*(z1+z2)"), &mut reg).unwrap_err();
        assert_eq!(err.offset, at_cap.len() + 1, "{err}");
    }

    /// Text that used to wrap silently in release builds (or panic, in
    /// debug builds and in `Rat::add`) is a typed error at the operand
    /// that does not fit.
    #[test]
    fn overflowing_arithmetic_is_a_parse_error_not_a_wrapped_value() {
        let mut reg = VarRegistry::new();
        let max = i128::MAX.to_string();
        for (src, offset) in [
            (format!("{max}*{max}*x"), 40),
            (format!("2*x*{max}"), 4),
            ("x^4294967295 * x^4294967295".to_owned(), 15),
            (format!("{max}*x + {max}*x"), 44),
            (format!("({max}*x)*(2*x)"), 44),
            (format!("({max}*x)*2"), 0),
            (format!("y*({max}*x - 1) + ({max}*x + 1)*y"), 52),
            ("(x^4294967295)*x".to_owned(), 0),
        ] {
            let err = parse_poly(&src, &mut reg).unwrap_err();
            assert_eq!(err.offset, offset, "{src:?}: {err}");
            assert!(err.message.starts_with("overflow"), "{err}");
        }
        // the same magnitudes where the exact result fits
        let p = parse_poly(&format!("{max}*x - {max}*x + x^4294967295"), &mut reg).unwrap();
        assert_eq!(p.num_terms(), 1);
        assert_eq!(p.degree(), u32::MAX);
    }

    /// One cursor over the whole input: the offset of an error in line *n*
    /// is its offset in the text, whatever the label's width and the line
    /// ends (it used to be the line start plus the offset after the `=`,
    /// with every line end counted as one byte).
    #[test]
    fn polyset_error_offsets_are_offsets_into_the_text() {
        let mut reg = VarRegistry::new();
        let src = "P1 = 2*x + 3*y\nLONGLABEL =    4*x + $\n";
        assert_eq!(src.find('$'), Some(36));
        assert_eq!(parse_polyset(src, &mut reg).unwrap_err().offset, 36);
        let crlf = "P1 = 2*x + 3*y\r\nP2 =     4*x + $\r\n";
        assert_eq!(crlf.find('$'), Some(31));
        assert_eq!(parse_polyset(crlf, &mut reg).unwrap_err().offset, 31);
        // a line without '=' is reported at its first byte
        let err = parse_polyset("P1 = x\n\n   oops\n", &mut reg).unwrap_err();
        assert_eq!(err.offset, 11);
        // and a parse that stops at a line's end says so at that offset
        let err = parse_polyset("P1 = x +\nP2 = y", &mut reg).unwrap_err();
        assert_eq!(err.offset, 8);
        assert!(err.message.contains("end of input"), "{err}");
    }

    #[test]
    fn polyset_lines_comments_and_labels() {
        let mut reg = VarRegistry::new();
        let src = "\n# revenue per zip\nzip:10001 = 2*x + 1\nzip:10002 = x*y\n";
        let set = parse_polyset(src, &mut reg).unwrap();
        assert_eq!(set.len(), 2);
        assert_eq!(set.get("zip:10001").unwrap().num_terms(), 2);
        assert!(set.get("zip:10002").is_some());
    }

    #[test]
    fn polyset_round_trip() {
        let mut reg = VarRegistry::new();
        let src = "P1 = 208.8*p1*m1 + 240*p1*m3\nP2 = 77.9*b1*m1";
        let set = parse_polyset(src, &mut reg).unwrap();
        let printed = set.display(&reg).to_string();
        let mut reg2 = VarRegistry::new();
        let again = parse_polyset(&printed, &mut reg2).unwrap();
        assert_eq!(again.display(&reg2).to_string(), printed);
    }

    #[test]
    fn polyset_rejects_missing_equals() {
        let mut reg = VarRegistry::new();
        assert!(parse_polyset("just a poly", &mut reg).is_err());
    }

    #[test]
    fn file_round_trip() {
        let mut reg = VarRegistry::new();
        let set = parse_polyset("P1 = 208.8*p1*m1 + 1/3*v\nP2 = 7", &mut reg).unwrap();
        let path = std::env::temp_dir().join("cobra_polyset_roundtrip.txt");
        write_polyset_file(&path, &set, &reg).unwrap();
        let mut reg2 = VarRegistry::new();
        let back = read_polyset_file(&path, &mut reg2).unwrap();
        assert_eq!(
            back.display(&reg2).to_string(),
            set.display(&reg).to_string()
        );
        std::fs::remove_file(&path).ok();
        // missing file folds into ParseError
        let err = read_polyset_file("/nonexistent/cobra.txt", &mut reg2).unwrap_err();
        assert!(err.message.contains("cannot read"));
    }
}
