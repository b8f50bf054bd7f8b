//! Whether kernel calls start threads — they do not.
//!
//! Every limb-wise and slot-wise kernel runs on the thread that calls it;
//! a server's parallelism is its workers, each running its own request.

/// Always `false`: no kernel call starts a thread. It stays only because
/// the official benchmark's header prints it as `parallel_compiled=`, and
/// that harness changes only on its own; both go together.
pub const fn compiled() -> bool {
    false
}
