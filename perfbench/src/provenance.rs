//! The provenance stamped on every result, so that captures from different
//! machines, kernel tiers or commits are never compared by mistake.

use crate::Args;
use qsc_json::Value;
use std::path::Path;
use std::process::Command;

/// The provenance record as a JSON object.
pub fn stamp(args: &Args) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let service_workers = if args.workload == "served_mix" {
        crate::served::workers(args)
    } else {
        0
    };
    Value::Obj(vec![
        ("workload".into(), Value::Str(args.workload.clone())),
        ("seed".into(), Value::Num(args.seed as f64)),
        ("seconds".into(), Value::Num(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::Num(cores as f64)),
        ("clients".into(), Value::Num(args.clients as f64)),
        ("service_workers".into(), Value::Num(service_workers as f64)),
        (
            "kernel_threads".into(),
            Value::Num(rayon::current_num_threads() as f64),
        ),
        (
            "kernels".into(),
            Value::Str(qsc_core::BackendConfig::kernels_tier().into()),
        ),
        ("commit".into(), Value::Str(commit())),
    ])
    .to_string()
}

/// The commit of the repository the benchmark belongs to, or `none` when
/// it is not run from a git checkout (or git is missing). The search stops
/// at the repository root, so an enclosing repository is never reported.
fn commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root");
    Command::new("git")
        .arg("-C")
        .arg(root)
        .args(["rev-parse", "--verify", "-q", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", root.parent().unwrap_or(root))
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|hash| hash.trim().to_string())
        .filter(|hash| !hash.is_empty())
        .unwrap_or_else(|| "none".into())
}
