//! Repo hygiene: no source module may regrow into a monolith.
//!
//! The system layer's `sim.rs` once reached ~1800 lines before being
//! staged into `scheduler`/`endpoint`/`transport`/`routing` modules; this
//! guard keeps every non-vendored `.rs` file — sources, tests, and benches
//! alike, `perfbench/` included — under 1000 lines so the next oversized
//! module is caught at review time, not after it calcifies. Every
//! `cargo test` runs it, CI's included.

use std::path::{Path, PathBuf};

const MAX_LINES: usize = 1000;

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = std::fs::read_dir(dir).unwrap_or_else(|e| {
        panic!("cannot list {}: {e}", dir.display());
    });
    for entry in entries {
        let path = entry.expect("readable directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            // Vendored crates and build output are not ours to size-police.
            if name == "vendor" || name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

#[test]
fn no_non_vendored_module_exceeds_the_line_limit() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    collect_rs(&root, &mut files);
    assert!(
        files.len() > 50,
        "guard walked only {} files — is it looking at the right root?",
        files.len()
    );

    let mut oversized = Vec::new();
    for path in files {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let lines = text.lines().count();
        if lines > MAX_LINES {
            oversized.push(format!(
                "  {} ({lines} lines)",
                path.strip_prefix(&root).unwrap_or(&path).display()
            ));
        }
    }
    assert!(
        oversized.is_empty(),
        "modules over {MAX_LINES} lines — split them before they calcify:\n{}",
        oversized.join("\n")
    );
}
