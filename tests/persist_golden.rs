//! Persistence-format stability: session artifacts committed to the
//! repo (`tests/golden/session_v1.cobra`, a version-1 artifact,
//! `session_v2.cobra`, a version-2 artifact with algebraic compression
//! armed, and `session_v3.cobra`, a version-3 artifact carrying its
//! selection) must keep loading — and keep answering bit-identically — as
//! the codebase evolves, and snapshotting the reference session must
//! reproduce the current-version artifact byte for byte. A failure here
//! means the on-disk format changed; bump the format version in
//! `cobra_provenance::persist` and regenerate the *current*-version
//! artifact instead of silently breaking persisted stores (older goldens
//! are never regenerated — they pin backward compatibility):
//!
//! ```text
//! cargo test --test persist_golden -- --ignored regenerate
//! ```

use cobra::core::{restore_session_from_bytes, snapshot_session, CobraSession};
use cobra::provenance::Valuation;
use cobra::util::Rat;

const POLYS: &str = "P1 = 208.8*p1*m1 + 240*p1*m3 + 42*v*m1 + 24.2*v*m3";
const TREE: &str = "Plans(Standard(p1,p2), v)";
const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/session_v1.cobra"
);
const GOLDEN_V2: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/session_v2.cobra"
);
const GOLDEN_V3: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/session_v3.cobra"
);

fn read_golden(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| {
        panic!(
            "missing golden artifact {path}: {e}\n\
             regenerate the current version with: \
             cargo test --test persist_golden -- --ignored regenerate"
        )
    })
}

/// Artifacts older than version 3 persist no selection.
fn assert_restored_without_selection(restored: &CobraSession) {
    let info = restored.info();
    assert_eq!(info.bound, None, "a pre-v3 artifact restores unselected");
    assert_eq!(info.compressed_size, None);
}

/// The reference session the golden artifacts were generated from: paper
/// running example, full frontier, one warm engine left by a bound hop,
/// and the last frontier point selected with its engines compiled.
fn reference_session() -> CobraSession {
    let mut s = CobraSession::from_text(POLYS).unwrap();
    s.add_tree_text(TREE).unwrap();
    let sizes: Vec<u64> = s
        .compress_frontier()
        .unwrap()
        .points()
        .iter()
        .map(|p| p.size)
        .collect();
    let probe = Valuation::with_default(Rat::ONE);
    for size in sizes {
        s.select_bound(size).unwrap();
        s.assign(&probe).unwrap(); // compile engines so they persist warm
    }
    s
}

fn assert_answers_match_reference(restored: &mut CobraSession) {
    let mut fresh = reference_session();
    let mut scenario = Valuation::with_default(Rat::ONE);
    let m3 = fresh.registry_mut().var("m3");
    scenario.set(m3, Rat::parse("0.8").unwrap());
    assert_eq!(restored.registry_mut().var("m3"), m3);

    let sizes: Vec<u64> = fresh
        .frontier()
        .unwrap()
        .points()
        .iter()
        .map(|p| p.size)
        .collect();
    assert!(!sizes.is_empty());
    for size in sizes {
        let want = fresh.select_bound(size).unwrap();
        let got = restored.select_bound(size).unwrap();
        assert_eq!(
            format!("{want:?}"),
            format!("{got:?}"),
            "golden report diverged at bound {size}"
        );
        let want = fresh.assign(&scenario).unwrap();
        let got = restored.assign(&scenario).unwrap();
        for (w, g) in want.rows.iter().zip(&got.rows) {
            assert_eq!(w.full, g.full, "bound {size}");
            assert_eq!(w.compressed, g.compressed, "bound {size}");
        }
    }
}

#[test]
fn golden_artifact_still_loads_and_answers_identically() {
    let bytes = std::fs::read(GOLDEN).unwrap_or_else(|e| {
        panic!(
            "missing golden artifact {GOLDEN}: {e}\n\
             v1 goldens are committed once and never regenerated"
        )
    });
    let mut restored = restore_session_from_bytes(&bytes)
        .expect("the committed v1 golden artifact must keep loading — format change?");
    let info = restored.info();
    assert!(info.hydrated, "a restored session starts hydrated");
    assert_eq!(info.trees, 1);
    assert!(info.warm_engines >= 1, "the golden carries a warm engine");
    assert!(
        !info.dag,
        "a v1 artifact predates the dag flag, which must default off"
    );
    assert_restored_without_selection(&restored);
    assert_answers_match_reference(&mut restored);
}

#[test]
fn golden_v2_artifact_restores_with_dag_armed() {
    let bytes = std::fs::read(GOLDEN_V2).unwrap_or_else(|e| {
        panic!(
            "missing golden artifact {GOLDEN_V2}: {e}\n\
             regenerate with: cargo test --test persist_golden -- --ignored regenerate"
        )
    });
    let mut restored = restore_session_from_bytes(&bytes)
        .expect("the committed v2 golden artifact must keep loading — format change?");
    let info = restored.info();
    assert!(info.hydrated, "a restored session starts hydrated");
    assert!(
        info.dag,
        "the v2 golden was snapshotted with algebraic compression armed"
    );
    assert_restored_without_selection(&restored);
    // DAG programs are deterministic rewrites and never persisted: the
    // restored session re-derives them lazily and must still answer
    // bit-identically to the flat reference.
    assert_answers_match_reference(&mut restored);
}

#[test]
fn snapshotting_the_reference_reproduces_the_v3_golden() {
    let golden = read_golden(GOLDEN_V3);
    let bytes = snapshot_session(&reference_session()).unwrap();
    assert_eq!(golden.len(), bytes.len(), "v3 artifact size changed");
    assert!(golden == bytes, "v3 artifact bytes changed");
}

#[test]
fn golden_v3_artifact_restores_with_its_selection() {
    let restored = restore_session_from_bytes(&read_golden(GOLDEN_V3))
        .expect("the committed v3 golden artifact must keep loading — format change?");
    let reference = reference_session();
    let (got, want) = (restored.info(), reference.info());
    assert!(got.hydrated, "installing the selection decompiles nothing");
    assert_eq!(got.bound, want.bound);
    assert!(got.bound.is_some());
    assert_eq!(got.compressed_size, want.compressed_size);
    // It answers at once: no select_bound before the first read.
    let mut scenario = Valuation::with_default(Rat::ONE);
    let m3 = restored.registry().lookup("m3").unwrap();
    scenario.set(m3, Rat::parse("0.8").unwrap());
    assert_eq!(
        restored.assign(&scenario).unwrap().rows,
        reference.assign(&scenario).unwrap().rows
    );
    let mut restored = restored;
    assert_answers_match_reference(&mut restored);
}

#[test]
fn freshly_snapshotted_bytes_restore_identically() {
    // The committed golden plus this round-trip pin both directions:
    // old bytes keep loading, and new bytes still follow the format.
    let bytes = snapshot_session(&reference_session()).unwrap();
    let mut restored = restore_session_from_bytes(&bytes).unwrap();
    assert_answers_match_reference(&mut restored);
}

#[test]
#[ignore = "regenerates tests/golden/session_v3.cobra in place"]
fn regenerate() {
    // Only the current-version artifact is ever regenerated; the v1 and
    // v2 goldens are frozen history pinning backward compatibility.
    let bytes = snapshot_session(&reference_session()).unwrap();
    std::fs::create_dir_all(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden")).unwrap();
    std::fs::write(GOLDEN_V3, &bytes).unwrap();
    println!("wrote {} bytes to {GOLDEN_V3}", bytes.len());
}
