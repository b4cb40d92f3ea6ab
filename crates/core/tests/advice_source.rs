//! `AdviceSource::open`, which only the frozen benchmark adapter still
//! reads advice files with: it must hand the audit the file's bytes, an
//! empty file included, and fail on a missing one. That an audit of
//! them agrees with `Auditor::audit` on the same bytes is
//! `tests/borrowed_audit.rs::entry_points_agree`.

use karousos::advice::Advice;
use karousos::{encode_advice, AdviceSource};
use kem::{FunctionId, HandlerId, OpRef, RequestId, Value};

/// A scratch file that cleans up after itself.
struct TempFile(std::path::PathBuf);

impl TempFile {
    fn with_bytes(tag: &str, bytes: &[u8]) -> TempFile {
        let path = std::env::temp_dir().join(format!(
            "karousos-advice-{}-{}.bin",
            tag,
            std::process::id()
        ));
        std::fs::write(&path, bytes).expect("temp advice file writes");
        TempFile(path)
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn sample_bytes() -> Vec<u8> {
    let mut a = Advice::default();
    a.tags.insert(RequestId(0), 42);
    a.nondet.insert(
        OpRef::new(RequestId(0), HandlerId::root(FunctionId(1)), 1),
        Value::str("sample"),
    );
    encode_advice(&a)
}

#[test]
fn open_reads_the_files_bytes() {
    let bytes = sample_bytes();
    let f = TempFile::with_bytes("roundtrip", &bytes);
    // The `bool` is read by nothing.
    for mmap in [false, true] {
        let read = AdviceSource::open(&f.0, mmap).expect("advice file opens");
        assert_eq!(read.bytes(), &bytes[..]);
    }
}

#[test]
fn empty_file_is_a_valid_source() {
    let f = TempFile::with_bytes("empty", &[]);
    let s = AdviceSource::open(&f.0, false).expect("empty file opens");
    assert_eq!(s.bytes(), &[] as &[u8]);
}

#[test]
fn missing_file_is_an_error() {
    let path = std::env::temp_dir().join(format!("karousos-advice-missing-{}", std::process::id()));
    assert!(AdviceSource::open(&path, false).is_err());
}
