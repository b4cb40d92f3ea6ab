//! Workspace-level re-exports for integration tests and examples.
#![forbid(unsafe_code)]
#![allow(missing_docs)]
