//! The text interchange format against the objects it denotes: whatever the
//! printer writes, the parser reads back as the same polynomial set
//! (property), and no edit of a valid text makes the parser do anything
//! but answer (mutation corpus). The hand-written grammar corners and the
//! hostile inputs sit beside the parser, in `cobra_provenance::parse`.

use cobra::provenance::{parse_polyset, Monomial, PolySet, Polynomial, Var, VarRegistry};
use cobra::util::{Rat, SplitMix64};
use proptest::prelude::*;

/// Every shape of identifier the grammar allows.
const NAMES: [&str; 6] = ["p1", "m3", "_t", "Business#1", "x2", "q_q"];

fn registry() -> VarRegistry {
    let mut reg = VarRegistry::new();
    reg.vars(NAMES);
    reg
}

/// Integers, terminating decimals (`208.8`) and fractions the printer
/// writes as `a/b` — negative ones too (`… + -5*x`).
fn coeff_strategy() -> impl Strategy<Value = Rat> {
    prop_oneof![
        (-500i128..500).prop_map(|n| Rat::new(n, 1)),
        (-5000i128..5000, 0u32..3, 0u32..3)
            .prop_map(|(n, twos, fives)| Rat::new(n, 2i128.pow(twos) * 5i128.pow(fives))),
        (-60i128..60, 1i128..50).prop_map(|(n, d)| Rat::new(n, d)),
    ]
}

fn monomial_strategy() -> impl Strategy<Value = Monomial> {
    proptest::collection::vec((0u32..NAMES.len() as u32, 1u32..4), 0..4)
        .prop_map(|pairs| Monomial::from_pairs(pairs.into_iter().map(|(v, e)| (Var(v), e))))
}

/// Up to eight terms, some of which cancel an earlier one (so polynomials
/// shrink, down to the `0` the printer writes for an empty sum).
fn poly_strategy() -> impl Strategy<Value = Polynomial<Rat>> {
    proptest::collection::vec((monomial_strategy(), coeff_strategy(), 0u8..4), 0..8).prop_map(
        |terms| {
            let cancelling: Vec<(Monomial, Rat)> = terms
                .iter()
                .filter(|(_, _, roll)| *roll == 0)
                .map(|(m, c, _)| (m.clone(), -*c))
                .collect();
            Polynomial::from_terms(terms.into_iter().map(|(m, c, _)| (m, c)).chain(cancelling))
        },
    )
}

/// Labels as result tuples produce them: spaces, punctuation, digits.
fn label_strategy() -> impl Strategy<Value = String> {
    (0u8..4, 0u32..100_000).prop_map(|(shape, n)| match shape {
        0 => format!("zip {n}"),
        1 => format!("P{n}"),
        2 => format!("{n}: revenue / customer (net)"),
        _ => format!("R | O | {n}"),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn printed_sets_parse_back_to_themselves(
        entries in proptest::collection::vec((label_strategy(), poly_strategy()), 0..6),
    ) {
        let reg = registry();
        let set = PolySet::from_entries(entries);
        let text = set.display(&reg).to_string();
        let mut seen = reg.clone();
        prop_assert_eq!(parse_polyset(&text, &mut seen), Ok(set.clone()));
        prop_assert_eq!(seen.len(), reg.len(), "the parser invented a variable");
        // line ends, indentation, blank lines and comments are not content
        let dressed = format!("# {}\r\n\r\n", text.len())
            + &text.replace('\n', "  \r\n\t").replace(" + ", "\t+  ");
        prop_assert_eq!(parse_polyset(&dressed, &mut seen), Ok(set));
    }
}

/// A valid polynomial set of about 2 KB that uses the whole grammar.
fn corpus_seed_text() -> String {
    let mut rng = SplitMix64::new(17);
    let mut text = String::from(
        "# mutation corpus seed\r\n\
         zip 10001 = 208.8*p1*m1 + 240*p1*m3 + -5*v*m1 + 1/3*v^2\n\
         \n\
         Q é = -(x - 2)*(x + 2)*3 + ((y))*2.50*- y - .5\n",
    );
    for line in 0..18 {
        text += &format!("L{line} = ");
        for term in 0..8 {
            if term > 0 {
                text += if rng.gen_bool(0.8) { " + " } else { " - " };
            }
            match rng.gen_range(4) {
                0 => text += &format!("{}", rng.gen_range(900)),
                1 => text += &format!("{}.{}", rng.gen_range(900), rng.gen_range(100)),
                2 => text += &format!("{}/{}", rng.gen_range(90), 1 + rng.gen_range(9)),
                _ => {}
            }
            if !text.ends_with(' ') {
                text.push('*');
            }
            text += &format!("x{}*c{}", rng.gen_range(40), rng.gen_range(8));
            if rng.gen_bool(0.2) {
                text += &format!("^{}", 2 + rng.gen_range(3));
            }
        }
        text.push('\n');
    }
    text
}

/// Every single-byte substitution (by one byte of each lexical class, and
/// some the grammar has no use for), every deletion and every truncation
/// of the seed text: each mutant must be answered with `Ok` or a
/// `ParseError` whose offset lies in the text — no panic (debug builds
/// check the arithmetic), and no hang (this test would not end).
#[test]
fn no_mutant_of_a_valid_text_panics_or_hangs() {
    const ALPHABET: &[u8] = b"+-*^()./= \n\r#$0x\0";
    let seed = corpus_seed_text();
    assert!((1_900..2_300).contains(&seed.len()), "{} bytes", seed.len());
    let mut reg = VarRegistry::new();
    let whole = parse_polyset(&seed, &mut reg).expect("the seed text is valid");
    assert_eq!(whole.len(), 20);

    // (accepted, rejected) over the mutants at `positions`
    let run = |positions: std::ops::Range<usize>| {
        let (mut accepted, mut rejected) = (0usize, 0usize);
        let mut check = |mutant: Vec<u8>, what: &str, at: usize| {
            // a mutant that splits the one multi-byte character is not text
            let Ok(mutant) = String::from_utf8(mutant) else {
                return;
            };
            let outcome = std::panic::catch_unwind(|| {
                let mut reg = VarRegistry::new();
                parse_polyset(&mutant, &mut reg).map(|set| set.len())
            });
            match outcome {
                Ok(Ok(polys)) => {
                    assert!(polys <= 21, "{what} at {at}");
                    accepted += 1;
                }
                Ok(Err(e)) => {
                    assert!(e.offset <= mutant.len(), "{what} at {at}: {e}");
                    rejected += 1;
                }
                Err(_) => panic!("the parser panicked on the {what} at byte {at}"),
            }
        };
        let bytes = seed.as_bytes();
        for at in positions {
            for &b in ALPHABET {
                if b != bytes[at] {
                    let mut mutant = bytes.to_vec();
                    mutant[at] = b;
                    check(mutant, "substitution", at);
                }
            }
            let mut mutant = bytes.to_vec();
            mutant.remove(at);
            check(mutant, "deletion", at);
            check(bytes[..at].to_vec(), "truncation", at);
        }
        (accepted, rejected)
    };
    // two halves side by side: 40,000 parses of 2 KB take a debug build
    // twelve seconds on one core
    let half = seed.len() / 2;
    let (front, back) = std::thread::scope(|s| {
        let back = s.spawn(|| run(half..seed.len()));
        (run(0..half), back.join().expect("no mutant panics"))
    });
    // Both answers occur in bulk; a parser that rejected (or accepted)
    // everything would make the corpus vacuous.
    let (accepted, rejected) = (front.0 + back.0, front.1 + back.1);
    assert!(
        accepted > 5_000 && rejected > 5_000,
        "{accepted} / {rejected}"
    );
}
