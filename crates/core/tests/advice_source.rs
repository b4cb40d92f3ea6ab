//! `AdviceSource`: the heap buffer an audit runs over, handed over in
//! memory or read from an advice file. Both must give the decoder the
//! same bytes, and therefore the same verdict.

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
    let read = AdviceSource::open(&f.0, false).expect("advice file opens");
    assert_eq!(read.bytes(), &bytes[..]);
    assert_eq!(read.len(), bytes.len());
}

#[test]
fn empty_file_is_a_valid_source() {
    let f = TempFile::with_bytes("empty", &[]);
    let s = AdviceSource::open(&f.0, false).expect("empty file opens");
    assert!(s.is_empty());
    assert_eq!(s.bytes(), &[] as &[u8]);
}

#[test]
fn missing_file_is_an_error() {
    let path = std::env::temp_dir().join(format!("karousos-advice-missing-{}", std::process::id()));
    assert!(AdviceSource::open(&path, false).is_err());
}

#[test]
fn from_bytes_holds_the_buffer() {
    let bytes = sample_bytes();
    let s = AdviceSource::from_bytes(bytes.clone());
    assert_eq!(s.bytes(), &bytes[..]);
}

/// End to end: auditing an advice file read from disk must give the
/// same verdict and statistics as the in-memory encoded entry point.
#[test]
fn source_audit_matches_in_memory_audit() {
    use kem::dsl;

    let mut b = kem::ProgramBuilder::new();
    b.shared_var("x", Value::Int(0), true);
    b.function(
        "handle",
        vec![
            dsl::swrite("x", dsl::add(dsl::sread("x"), dsl::lit(1))),
            dsl::respond(dsl::sread("x")),
        ],
    );
    b.request_handler("handle");
    let program = b.build().expect("program builds");
    let cfg = kem::ServerConfig::default();
    let inputs = vec![Value::Null; 6];
    let (out, advice) = karousos::run_instrumented_server(
        &program,
        &inputs,
        &cfg,
        karousos::CollectorMode::Karousos,
    )
    .expect("server run succeeds");
    let bytes = encode_advice(&advice);
    let f = TempFile::with_bytes("audit", &bytes);

    let baseline = karousos::audit_encoded(&program, &out.trace, &bytes, cfg.isolation)
        .expect("in-memory audit accepts");

    // `advice_mmap` and `open`'s `bool` are read by nothing: either
    // value audits the same heap buffer.
    for advice_mmap in [false, true] {
        let source = AdviceSource::open(&f.0, advice_mmap).expect("source opens");
        let opts = karousos::AuditOptions {
            advice_mmap,
            ..karousos::AuditOptions::default()
        };
        let report = karousos::audit_source_with_obs(
            &program,
            &out.trace,
            &source,
            cfg.isolation,
            opts,
            &obs::Obs::noop(),
        )
        .expect("source-backed audit accepts");
        assert_eq!(report.reexec, baseline.reexec, "advice_mmap={advice_mmap}");
        assert_eq!(report.graph_nodes, baseline.graph_nodes);
        assert_eq!(report.graph_edges, baseline.graph_edges);
    }
}
