//! The names `benchmark/src/adapter.rs` calls the verifier by, which the
//! verifier no longer has. `benchmark/` changes only on its own, so
//! these stay until it does; then this file is deleted whole, with the
//! tests that hold it to [`Auditor::audit`]. CI fails if any other
//! source file names them.

use std::path::Path;

use kem::{Program, Trace};
use kvstore::IsolationLevel;
use obs::Obs;

use crate::{AuditReport, Auditor, Limits, RejectReason};

/// The fields of an [`Auditor`] the adapter sets or reads.
#[derive(Debug, Clone, Copy)]
pub struct AuditOptions {
    /// [`Auditor::threads`].
    pub threads: usize,
    /// [`Auditor::limits`].
    pub limits: Limits,
    /// Read by nothing: replay always runs on the bytecode VM.
    pub bytecode: bool,
    /// Read by nothing: advice is always a heap buffer.
    pub advice_mmap: bool,
}

impl Default for AuditOptions {
    fn default() -> Self {
        AuditOptions {
            threads: 1,
            limits: Limits::default(),
            bytecode: true,
            advice_mmap: false,
        }
    }
}

/// An advice file, read whole into memory.
#[derive(Debug)]
pub struct AdviceSource(Vec<u8>);

impl AdviceSource {
    /// Reads the file. The `bool` is read by nothing. The whole file is
    /// read before the audit checks `Limits::decode_max_bytes`.
    pub fn open(path: &Path, _: bool) -> std::io::Result<AdviceSource> {
        std::fs::read(path).map(AdviceSource)
    }

    /// The file's bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// [`Auditor::audit`] over an [`AdviceSource`]'s bytes.
pub fn audit_source_with_obs(
    program: &Program,
    trace: &Trace,
    source: &AdviceSource,
    isolation: IsolationLevel,
    opts: AuditOptions,
    obs: &Obs,
) -> Result<AuditReport, RejectReason> {
    audit_encoded_with_obs(program, trace, source.bytes(), isolation, opts, obs)
}

/// [`Auditor::audit`] under `opts` and `obs`, with the bare reason.
pub fn audit_encoded_with_obs(
    program: &Program,
    trace: &Trace,
    bytes: &[u8],
    isolation: IsolationLevel,
    opts: AuditOptions,
    obs: &Obs,
) -> Result<AuditReport, RejectReason> {
    let auditor = Auditor {
        threads: opts.threads,
        limits: opts.limits,
        obs: obs.clone(),
        ..Auditor::default()
    };
    auditor
        .audit(program, trace, bytes, isolation)
        .map_err(|failure| failure.reason)
}
