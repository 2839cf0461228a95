//! The marketplace benchmark: three platform×backend cells driven
//! through the HTTP gateway by a closed loop of clients, measured end to
//! end and, in a separate traced run, layer by layer. See `README.md`
//! in this directory for the design and how to run it.

pub mod cell;
pub mod procstat;
pub mod summary;
pub mod trace;
pub mod trajectory;
