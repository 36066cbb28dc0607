//! The `.cobra` loader against hostile bytes: structure-aware mutants of
//! the committed v1, v2 and v3 golden artifacts — byte flips,
//! truncations, bumped length and count fields, swapped section tags —
//! each with its checksum re-sealed, so it gets past the header check and
//! into the section parsers.
//!
//! Every mutant must restore to `Ok` or a typed error, never a panic, a
//! hang or an out-of-bounds index; a mutant that restores must then answer
//! one `assign` and one `f64` sweep (with a result or a typed error)
//! without panicking. A failure names the golden, the seed and the
//! mutation, and is fixed in the loader with a typed error.
//!
//! Std-only and deterministic: a fixed number of seeded mutants per
//! golden.

use cobra::core::{restore_session_from_bytes, CobraSession, ScenarioSet};
use cobra::provenance::persist::fnv1a64;
use cobra::provenance::{Valuation, Var};
use cobra::util::{Rat, SplitMix64};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

const GOLDENS: [&str; 3] = ["session_v1.cobra", "session_v2.cobra", "session_v3.cobra"];
const MUTANTS: u64 = 8000;
/// Far more than a golden's mutants need in a debug build: past it, a
/// mutant is taken to hang.
const DEADLINE: Duration = Duration::from_secs(120);

/// Header, section count and table layout of the format (see
/// `cobra_provenance::persist`).
const TABLE_START: usize = 32;
const TABLE_ENTRY_LEN: usize = 24;

fn golden(name: &str) -> Vec<u8> {
    let path = format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read(&path).unwrap_or_else(|e| panic!("missing golden artifact {path}: {e}"))
}

/// The section table's `(tag, offset, length)` field positions.
fn table_entries(bytes: &[u8]) -> Vec<usize> {
    let count = u32::from_le_bytes(bytes[16..20].try_into().unwrap()) as usize;
    (0..count).map(|i| TABLE_START + i * TABLE_ENTRY_LEN).collect()
}

/// Values a length or count field is bumped to.
fn bumped(rng: &mut SplitMix64, old: u64, limit: u64) -> u64 {
    match rng.gen_range(8) {
        0 => old.wrapping_add(1),
        1 => old.wrapping_sub(1),
        2 => old.wrapping_add(1 + rng.gen_range(64)),
        3 => 0,
        4 => limit,
        5 => limit + 1 + rng.gen_range(1 << 20),
        6 => u32::MAX as u64 - rng.gen_range(4),
        _ => u64::MAX - rng.gen_range(4),
    }
}

/// One mutant of `good` and what was done to it.
fn mutate(rng: &mut SplitMix64, good: &[u8]) -> (Vec<u8>, String) {
    let mut bytes = good.to_vec();
    let len = bytes.len();
    let what = match rng.gen_range(6) {
        // Flip one to four bits past the checksum.
        0 => {
            let mut at = Vec::new();
            for _ in 0..1 + rng.gen_range(4) {
                let i = 16 + rng.gen_range((len - 16) as u64) as usize;
                bytes[i] ^= 1 << rng.gen_range(8);
                at.push(i);
            }
            format!("bit flips at {at:?}")
        }
        // Truncate anywhere, header included.
        1 => {
            let cut = rng.gen_range(len as u64) as usize;
            bytes.truncate(cut);
            format!("truncated to {cut} bytes")
        }
        // Bump an aligned u32: every count, string length, tag, index
        // and flag of the format is one.
        2 => {
            let i = 4 * (4 + rng.gen_range((len / 4 - 4) as u64) as usize);
            let old = u32::from_le_bytes(bytes[i..i + 4].try_into().unwrap());
            let new = bumped(rng, old as u64, len as u64) as u32;
            bytes[i..i + 4].copy_from_slice(&new.to_le_bytes());
            format!("u32 at {i}: {old} -> {new}")
        }
        // Bump an aligned u64: slice lengths, sizes, bounds, weights.
        3 => {
            let i = 8 * (2 + rng.gen_range((len / 8 - 2) as u64) as usize);
            let old = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
            let new = bumped(rng, old, len as u64);
            bytes[i..i + 8].copy_from_slice(&new.to_le_bytes());
            format!("u64 at {i}: {old} -> {new}")
        }
        // Bump a section's offset or length in the table.
        4 => {
            let entries = table_entries(&bytes);
            let entry = entries[rng.gen_range(entries.len() as u64) as usize];
            let i = entry + 8 * (1 + rng.gen_range(2) as usize);
            let old = u64::from_le_bytes(bytes[i..i + 8].try_into().unwrap());
            let new = bumped(rng, old, len as u64);
            bytes[i..i + 8].copy_from_slice(&new.to_le_bytes());
            format!("table field at {i}: {old} -> {new}")
        }
        // Swap two sections' tags.
        _ => {
            let entries = table_entries(&bytes);
            let a = entries[rng.gen_range(entries.len() as u64) as usize];
            let b = entries[rng.gen_range(entries.len() as u64) as usize];
            let (ta, tb) = (bytes[a..a + 4].to_vec(), bytes[b..b + 4].to_vec());
            bytes[a..a + 4].copy_from_slice(&tb);
            bytes[b..b + 4].copy_from_slice(&ta);
            format!("tags of the entries at {a} and {b} swapped")
        }
    };
    if bytes.len() >= 16 {
        let checksum = fnv1a64(&bytes[16..]);
        bytes[8..16].copy_from_slice(&checksum.to_le_bytes());
    }
    (bytes, what)
}

/// What a client does with a re-loaded session: select a bound if none
/// came back, then one `assign` and one `f64` sweep. Errors are answers;
/// only a panic fails.
fn exercise(s: &mut CobraSession) {
    if s.info().bound.is_none() {
        let coarsest = s.frontier().ok().and_then(|f| f.points().first().map(|p| p.size));
        if let Some(bound) = coarsest {
            let _ = s.select_bound(bound);
        }
    }
    let vars: Vec<Var> = s.registry().iter().map(|(v, _)| v).take(3).collect();
    let mut scenario = Valuation::with_default(Rat::ONE);
    for (k, &v) in vars.iter().enumerate() {
        scenario.set(v, Rat::new(3 + k as i128, 4));
    }
    let _ = s.assign(&scenario);
    let _ = s.sweep_f64(ScenarioSet::perturb_each(vars, Rat::new(1, 2)));
}

/// Runs `MUTANTS` mutants of one golden; returns the ones that panicked.
fn run_golden(name: &'static str) -> Vec<String> {
    let good = golden(name);
    assert!(
        restore_session_from_bytes(&good).is_ok(),
        "{name} itself must restore"
    );
    let mut failures = Vec::new();
    for seed in 0..MUTANTS {
        let mut rng = SplitMix64::new(0xc0b7_a000 + seed);
        let (bytes, what) = mutate(&mut rng, &good);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Ok(mut session) = restore_session_from_bytes(&bytes) {
                exercise(&mut session);
            }
        }));
        if let Err(payload) = outcome {
            let msg = (payload.downcast_ref::<String>().cloned())
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_default();
            failures.push(format!("{name} seed {seed} ({what}): {msg}"));
        }
    }
    failures
}

#[test]
fn mutated_goldens_restore_or_fail_typed() {
    // Caught panics are the findings; keep their backtraces off stderr.
    std::panic::set_hook(Box::new(|_| {}));
    let (tx, rx) = mpsc::channel();
    for name in GOLDENS {
        let tx = tx.clone();
        std::thread::spawn(move || tx.send(run_golden(name)).unwrap());
    }
    let mut failures = Vec::new();
    for _ in GOLDENS {
        let done = rx.recv_timeout(DEADLINE);
        failures.extend(done.expect("a mutant hangs the loader or its first requests"));
    }
    let _ = std::panic::take_hook();
    assert!(
        failures.is_empty(),
        "{} mutants panicked, e.g.:\n{}",
        failures.len(),
        failures.iter().take(12).cloned().collect::<Vec<_>>().join("\n")
    );
}
