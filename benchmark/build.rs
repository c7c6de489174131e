//! Records the toolchain and profile the benchmark was compiled with, for
//! the environment stamp every output carries.

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    println!("cargo:rustc-env=BENCH_RUSTC_VERSION={version}");
    for (var, key) in [
        ("PROFILE", "BENCH_PROFILE"),
        ("OPT_LEVEL", "BENCH_OPT_LEVEL"),
    ] {
        let value = std::env::var(var).unwrap_or_else(|_| "unknown".to_string());
        println!("cargo:rustc-env={key}={value}");
    }
    println!("cargo:rerun-if-changed=build.rs");
}
