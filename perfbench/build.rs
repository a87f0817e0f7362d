//! Records build provenance for the benchmark's output: the effective
//! rustflags, the compiler version, the profile, and a digest of every
//! source file the measured program is built from (the checkout the
//! benchmark runs in need not be a git repository).

use std::path::{Path, PathBuf};

fn collect(path: &Path, out: &mut Vec<PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            collect(&entry.path(), out);
        }
    } else if path.is_file() {
        out.push(path.to_path_buf());
    }
}

fn fnv1a(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= u64::from(b);
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn main() {
    let manifest = PathBuf::from(std::env::var("CARGO_MANIFEST_DIR").expect("set by cargo"));
    let root = manifest
        .parent()
        .expect("the benchmark sits inside the repository");
    let mut files = Vec::new();
    for rel in [
        "crates",
        "src",
        "vendor",
        "Cargo.toml",
        "Cargo.lock",
        ".cargo",
    ] {
        collect(&root.join(rel), &mut files);
    }
    collect(&manifest.join("src"), &mut files);
    files.sort();
    let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        println!("cargo:rerun-if-changed={}", f.display());
        let rel = f.strip_prefix(root).unwrap_or(f);
        fnv1a(&mut digest, rel.to_string_lossy().as_bytes());
        fnv1a(&mut digest, &std::fs::read(f).unwrap_or_default());
    }
    println!("cargo:rustc-env=PERFBENCH_SOURCE_DIGEST={digest:016x}");

    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS")
        .unwrap_or_default()
        .replace('\u{1f}', " ");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rustc-env=PERFBENCH_RUSTFLAGS={flags}");

    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!(
        "cargo:rustc-env=PERFBENCH_PROFILE={}",
        std::env::var("PROFILE").unwrap_or_default()
    );
}
