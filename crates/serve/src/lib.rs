//! # tasd-serve — network serving front-end for the TASD serving engine
//!
//! This crate puts [`tasd::ServingEngine`] behind a TCP socket:
//!
//! * [`wire`] — the length-prefixed binary frame format (requests, responses,
//!   structured error frames, session control) with a hardened, panic-free decoder;
//! * [`server`] — the server: one shared serving session, a per-connection
//!   reader/writer thread pair, and a background [`DispatcherHandle`] that closes the
//!   open window whenever no window is executing, no matter what clients do;
//! * [`client`] — a minimal blocking client for tests and tools;
//! * [`loadgen`] — a closed-loop load generator that replays mixed-shape traffic and
//!   reports p50/p95/p99 latency and throughput.
//!
//! # Deploys on the wire
//!
//! The server fronts a [`tasd::WeightStore`]: an
//! [`UpdateWeights`](wire::Frame::UpdateWeights) frame deploys named weights (full
//! registration with a config, incremental push without — only dirty 64-row bands
//! re-prepare), answered by [`UpdateAck`](wire::Frame::UpdateAck);
//! [`NamedRequest`](wire::Frame::NamedRequest) multiplies against the name's current
//! generation, resolved at enqueue so a concurrent deploy never tears an in-flight
//! request. [`Server::bind_restored`] starts from a store snapshot (written by
//! [`Server::snapshot`]; `tasd-serve --snapshot PATH` does both) so a restarted server
//! re-registers the same weights with zero decompositions; the
//! [`Stats`](wire::Frame::Stats) frame reports the store generation, resident prepared
//! bytes, and warm-start status. Wire details: `README.md`.
//!
//! # Error frames, not dropped connections
//!
//! Admission-control outcomes ([`QueueFull`](wire::ErrorCode::QueueFull),
//! [`DeadlineExceeded`](wire::ErrorCode::DeadlineExceeded),
//! [`ShuttingDown`](wire::ErrorCode::ShuttingDown)) and execution failures all travel
//! back as [`Frame::Error`](wire::Frame::Error) with the request's id — a client never
//! learns about overload from a reset connection. Only an unrecoverable protocol
//! violation (bytes that do not decode) closes the connection, and even that is
//! preceded by a [`BadFrame`](wire::ErrorCode::BadFrame) error frame.
//!
//! [`DispatcherHandle`]: tasd::DispatcherHandle

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod loadgen;
pub mod server;
pub mod wire;

pub use client::Client;
pub use loadgen::{LoadReport, LoadShape, LoadSpec};
pub use server::{Server, ServerConfig};
pub use wire::{ControlOp, ErrorCode, Frame, RecvError, StatsReport, WireError};
