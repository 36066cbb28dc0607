//! The environment block of a record: what the numbers were taken on.

use crate::surface::{self, Json};
use std::process::Command;

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
}

/// Whether the checkout differs from its commit; `null` outside a git
/// checkout.
fn git_dirty() -> Json {
    match Command::new("git").args(["status", "--porcelain"]).output() {
        Ok(out) if out.status.success() => Json::Bool(!out.stdout.is_empty()),
        _ => Json::Null,
    }
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map(|m| m.trim().to_owned())
}

fn text(v: Option<String>) -> Json {
    v.map_or(Json::Null, Json::Str)
}

/// Commit, toolchain, host and kernel dispatch. Anything the host cannot
/// answer (no git checkout, no /proc) is `null`, never a guess.
pub fn block() -> Vec<(String, Json)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        (
            "git_commit".into(),
            text(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("git_dirty".into(), git_dirty()),
        ("rustc".into(), text(command_line("rustc", &["-V"]))),
        ("nproc".into(), Json::Num(nproc as f64)),
        ("cpu_model".into(), text(cpu_model())),
        ("avx2".into(), Json::Bool(surface::avx2_available())),
        ("fma".into(), Json::Bool(surface::fma_available())),
        (
            "resolved_kernel".into(),
            Json::Str(surface::resolved_kernel().into()),
        ),
        // The sources build as `cobra-bench`'s bin and as the package
        // `cobra-benchmark`: two binaries, whose timings `--compare` does
        // not set against each other.
        (
            "build_package".into(),
            Json::Str(env!("CARGO_PKG_NAME").into()),
        ),
        ("os".into(), Json::Str(std::env::consts::OS.into())),
        ("arch".into(), Json::Str(std::env::consts::ARCH.into())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_names_the_host_and_the_dispatch() {
        let env = Json::Obj(block());
        assert!(env.get("nproc").and_then(Json::as_u64).unwrap() >= 1);
        assert!(env.get("resolved_kernel").and_then(Json::as_str).is_some());
        assert!(env.get("avx2").and_then(Json::as_bool).is_some());
        // absent tools read as null, not as an error
        assert_eq!(text(command_line("no-such-program-here", &[])), Json::Null);
    }
}
