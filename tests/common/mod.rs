//! Shared by the golden-output tests (`mod common;`).

use std::path::Path;

/// Compares `rendered` with the committed golden file at `path` (relative
/// to the repo root), line by line so a mismatch names the line that
/// moved. With `UPDATE_GOLDEN` set the file is rewritten instead — only
/// after an *intentional* semantic change.
pub fn assert_golden(path: &str, rendered: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(path);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, rendered).unwrap();
        eprintln!("golden file rewritten: {}", path.display());
        return;
    }
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden file {} ({e}); rerun with UPDATE_GOLDEN=1", path.display())
    });
    if rendered != golden {
        for (r, g) in rendered.lines().zip(golden.lines()) {
            assert_eq!(r, g, "output diverged from {}", path.display());
        }
        assert_eq!(rendered.len(), golden.len(), "{}: output length changed", path.display());
    }
}
