//! Records build provenance (git revision, rustc version) for the
//! result log. Both fall back to "unknown" outside a git checkout or
//! when the tool cannot be run.

use std::process::Command;

fn output_of(cmd: &str, args: &[&str]) -> String {
    Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    println!(
        "cargo:rustc-env=SERVBENCH_RUSTC={}",
        output_of(&rustc, &["--version"])
    );
    // Only ask git when the package sits in the repository's own
    // checkout; an enclosing unrelated repository must not lend its rev.
    let git_rev = if std::path::Path::new("../.git").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
        println!("cargo:rerun-if-changed=../.git/refs");
        output_of("git", &["-C", "..", "rev-parse", "HEAD"])
    } else {
        "unknown".to_string()
    };
    println!("cargo:rustc-env=SERVBENCH_GIT_REV={git_rev}");
    println!("cargo:rerun-if-changed=build.rs");
}
