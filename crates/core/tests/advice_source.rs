//! `AdviceSource`: the in-memory / memory-mapped backing behind the
//! file-based audit entry points. The mapped and read paths must hand
//! the decoder identical bytes — and therefore identical verdicts —
//! with the mapped path reporting a zero heap-resident footprint.

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
        Value::str("mapped"),
    );
    encode_advice(&a)
}

#[test]
fn mmap_and_read_paths_yield_identical_bytes() {
    let bytes = sample_bytes();
    let f = TempFile::with_bytes("roundtrip", &bytes);

    let read = AdviceSource::open(&f.0, false).expect("read path opens");
    assert!(!read.is_mmap());
    assert_eq!(read.bytes(), &bytes[..]);
    assert_eq!(read.len(), bytes.len());
    assert_eq!(read.resident_bytes(), bytes.len() as u64);

    let mapped = AdviceSource::open(&f.0, true).expect("mmap path opens");
    assert_eq!(mapped.bytes(), &bytes[..]);
    assert_eq!(mapped.len(), bytes.len());
    if mapped.is_mmap() {
        // On platforms with the mmap shim, mapped pages are not heap
        // bytes.
        assert_eq!(mapped.resident_bytes(), 0);
    } else {
        // Explicit fallback-to-read path: same bytes, heap-resident.
        assert_eq!(mapped.resident_bytes(), bytes.len() as u64);
    }
}

#[cfg(unix)]
#[test]
fn mmap_actually_maps_on_unix() {
    let bytes = sample_bytes();
    let f = TempFile::with_bytes("maps", &bytes);
    let mapped = AdviceSource::open(&f.0, true).expect("mmap path opens");
    assert!(mapped.is_mmap(), "unix open(use_mmap=true) must map");
}

#[test]
fn empty_file_is_a_valid_source() {
    let f = TempFile::with_bytes("empty", &[]);
    for use_mmap in [false, true] {
        let s = AdviceSource::open(&f.0, use_mmap).expect("empty file opens");
        assert!(s.is_empty());
        assert_eq!(s.bytes(), &[] as &[u8]);
        assert_eq!(s.resident_bytes(), 0);
    }
}

#[test]
fn missing_file_is_an_error_not_a_fallback() {
    let path = std::env::temp_dir().join(format!("karousos-advice-missing-{}", std::process::id()));
    assert!(AdviceSource::open(&path, true).is_err());
    assert!(AdviceSource::open(&path, false).is_err());
}

#[test]
fn from_bytes_is_memory_backed() {
    let bytes = sample_bytes();
    let s = AdviceSource::from_bytes(bytes.clone());
    assert!(!s.is_mmap());
    assert_eq!(s.bytes(), &bytes[..]);
    assert_eq!(s.resident_bytes(), bytes.len() as u64);
}

/// End to end: auditing through a mapped source must give the same
/// verdict and statistics as the in-memory encoded entry point.
#[test]
fn mapped_audit_matches_in_memory_audit() {
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

    let opts = karousos::AuditOptions::default();
    let baseline = karousos::audit_encoded(&program, &out.trace, &bytes, cfg.isolation)
        .expect("in-memory audit accepts");

    for use_mmap in [false, true] {
        let source = AdviceSource::open(&f.0, use_mmap).expect("source opens");
        let obs = obs::Obs::enabled();
        let report = karousos::audit_source_with_obs(
            &program,
            &out.trace,
            &source,
            cfg.isolation,
            opts,
            &obs,
        )
        .expect("source-backed audit accepts");
        assert_eq!(report.reexec, baseline.reexec, "use_mmap={use_mmap}");
        assert_eq!(report.graph_nodes, baseline.graph_nodes);
        assert_eq!(report.graph_edges, baseline.graph_edges);
        // The residency gauge tells the backings apart: a mapped
        // advice holds none of its bytes on the heap.
        let resident = if source.is_mmap() {
            0
        } else {
            bytes.len() as u64
        };
        assert_eq!(
            obs.snapshot()
                .metrics
                .gauge_value(obs::GaugeId::AdviceBytesResident),
            Some(resident),
            "use_mmap={use_mmap}"
        );
    }

    // The file-path entry point honors `advice_mmap` from the options.
    let report = karousos::audit_file_with_options(
        &program,
        &out.trace,
        &f.0,
        cfg.isolation,
        karousos::AuditOptions {
            advice_mmap: true,
            ..opts
        },
    )
    .expect("file-backed audit accepts");
    assert_eq!(report.reexec, baseline.reexec);
}
