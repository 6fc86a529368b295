//! Records the toolchain and source revision the benchmark was built
//! from, for the run metadata.

use std::path::Path;
use std::process::Command;

fn output(cmd: &mut Command) -> Option<String> {
    let out = cmd.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = output(Command::new(rustc).arg("--version")).unwrap_or_else(|| "unknown".into());
    // Only a git work tree rooted at this repository names the revision;
    // a plain source checkout (or an enclosing unrelated repository) does not.
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("benchmark sits inside the repository");
    let top = output(
        Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "--show-toplevel"]),
    );
    let commit = match top {
        Some(top) if Path::new(&top).canonicalize().ok() == root.canonicalize().ok() => output(
            Command::new("git")
                .arg("-C")
                .arg(root)
                .args(["rev-parse", "HEAD"]),
        ),
        _ => None,
    }
    .unwrap_or_else(|| "unknown (not a git checkout)".into());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rerun-if-changed=build.rs");
    // Rebuild when the checked-out revision moves. Only name files that
    // exist: cargo reruns a build script on every build while a watched
    // path is missing.
    let head = root.join(".git/HEAD");
    if let Ok(text) = std::fs::read_to_string(&head) {
        println!("cargo:rerun-if-changed={}", head.display());
        if let Some(reference) = text.trim().strip_prefix("ref: ") {
            let target = root.join(".git").join(reference);
            if target.exists() {
                println!("cargo:rerun-if-changed={}", target.display());
            }
        }
    }
}
