//! Measured time-to-solution benchmark; see `README.md` beside this crate.

pub mod comm;
pub mod compare;
pub mod contract;
pub mod host;
pub mod json;
pub mod layers;
pub mod run;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod verify;
pub mod workload;
