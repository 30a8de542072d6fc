//! The sans-io state-machine contract every node in this crate obeys.
//!
//! The contract lives in [`mmt_netsim::machine`], next to the one
//! blanket impl that makes every [`Machine`] a simulator node; it is
//! re-exported here so drivers (`mmt-io`) import it from the protocol
//! crate they drive.

pub use mmt_netsim::machine::{Input, Machine, Output};
