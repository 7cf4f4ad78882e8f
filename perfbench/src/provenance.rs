//! Where a result came from: host, threads, toolchain and CPU features.
//!
//! Printed with every result and stored in every trace, so a change in
//! the numbers can be told apart from a change in the build or host.

/// Logical cores the host offers this process.
pub fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `rustc --version`, or `unknown` when it cannot be run.
fn rustc_version() -> String {
    std::process::Command::new(std::env::var_os("RUSTC").unwrap_or_else(|| "rustc".into()))
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the running CPU reports `feature` (`false` off x86-64).
fn host_has(feature: &str) -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        match feature {
            "avx2" => std::arch::is_x86_feature_detected!("avx2"),
            "fma" => std::arch::is_x86_feature_detected!("fma"),
            _ => false,
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = feature;
        false
    }
}

/// The provenance block as one JSON object.
pub fn json(threads: usize) -> String {
    let rustflags = std::env::var("RUSTFLAGS").unwrap_or_default();
    let target_cpu = rustflags
        .split_whitespace()
        .find_map(|flag| flag.strip_prefix("-Ctarget-cpu="))
        .unwrap_or("generic")
        .to_string();
    format!(
        "{{\"host_cores\":{},\"threads\":{},\"arch\":\"{}\",\"rustc\":\"{}\",\
         \"rustflags\":\"{}\",\"target_cpu\":\"{}\",\"avx2_compiled\":{},\
         \"fma_compiled\":{},\"avx2_host\":{},\"fma_host\":{},\"profile\":\"release\"}}",
        host_cores(),
        threads,
        std::env::consts::ARCH,
        rustc_version().replace('"', "'"),
        rustflags.replace('"', "'"),
        target_cpu.replace('"', "'"),
        cfg!(target_feature = "avx2"),
        cfg!(target_feature = "fma"),
        host_has("avx2"),
        host_has("fma"),
    )
}
