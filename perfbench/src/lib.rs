//! The Rumble engine's benchmark: named JSONiq workloads driven through the
//! public API (`rumble_core::Rumble`, `PreparedQuery`, the sparklite
//! metrics and event collector), every answer checked against an
//! independent reference. See `README.md` beside this crate.

pub mod reference;
pub mod report;
pub mod session;
pub mod stats;
pub mod workload;
