//! The committed benchmark ledgers at the repository root stay
//! well-formed: `merge_bench_section` replaces top-level entries in
//! place, so a top-level key that appears twice means a merge went
//! wrong and one of the two values is stale.

use spe_bench::harness::duplicate_top_level_keys;
use std::path::Path;

#[test]
fn committed_ledgers_have_no_duplicate_top_level_keys() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    for name in ["BENCH_train.json", "BENCH_serve.json"] {
        let text = std::fs::read_to_string(root.join(name))
            .unwrap_or_else(|e| panic!("cannot read {name}: {e}"));
        let dups = duplicate_top_level_keys(&text);
        assert!(dups.is_empty(), "{name} repeats top-level keys {dups:?}");
    }
}
