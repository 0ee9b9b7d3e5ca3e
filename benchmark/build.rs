//! Bakes build provenance into the binary: the rustc version, the build
//! profile and the git revision of the source tree (`unknown` when the
//! tree is not a git checkout).

use std::process::Command;

fn capture(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    if !out.status.success() {
        return None;
    }
    let text = String::from_utf8(out.stdout).ok()?;
    let text = text.trim();
    (!text.is_empty()).then(|| text.to_string())
}

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = capture(&rustc, &["--version"]).unwrap_or_else(|| "unknown".to_string());
    let rev = capture("git", &["rev-parse", "--short=12", "HEAD"])
        .unwrap_or_else(|| "unknown".to_string());
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".to_string());
    println!("cargo:rustc-env=AMRBENCH_RUSTC={version}");
    println!("cargo:rustc-env=AMRBENCH_GIT_REV={rev}");
    println!("cargo:rustc-env=AMRBENCH_PROFILE={profile}");
    println!("cargo:rerun-if-changed=build.rs");
    if std::path::Path::new("../.git/HEAD").exists() {
        println!("cargo:rerun-if-changed=../.git/HEAD");
    }
}
