//! End-to-end benchmark of the LogNIC capacity-planning service.
//!
//! Seeded request streams ([`gen`]) are replayed in a closed loop
//! through `lognic_service::Service::handle_line` ([`phase`]); every
//! response is checked ([`check`]) and the run prints its metrics
//! ([`report`]), with end-to-end timings scaled by a host-speed probe
//! ([`probe`]). `src/main.rs` is the command; `design.json` records
//! the workloads, the layer map and the noise the bounds came from.

pub mod check;
pub mod gen;
pub mod phase;
pub mod probe;
pub mod report;
