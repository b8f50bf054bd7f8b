//! Multi-tenant session state.
//!
//! A session owns nothing but its uploaded key material, and keeps it in
//! *compressed wire form only* — the 32-byte seed plus the `b`
//! polynomials, exactly as received. Expanded keys live exclusively in
//! the shared [`crate::cache::KeyCache`], so the per-tenant resident
//! footprint is the paper's halved key size and the expansion budget is
//! a single server-wide knob.

use crate::cache::KeyKind;
use crate::protocol::ErrorCode;
use fhe_program::program::{Program, ProgramInfo};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A validated encrypted program uploaded to a session: the decoded IR,
/// its static-analysis summary (levels, scales, key manifest), and the
/// wire size it occupies for the stored-bytes accounting.
pub struct StoredProgram {
    /// The decoded program.
    pub program: Program,
    /// `validate()` output: per-instruction metadata plus the key
    /// manifest a `RunProgram` request's key plan is read from.
    pub info: ProgramInfo,
    /// Size of the `MADP` wire form as uploaded.
    pub wire_len: usize,
}

/// One tenant's uploaded keys, in compressed serialized form, plus any
/// uploaded programs.
#[derive(Default)]
pub struct Session {
    relin: Mutex<Option<Arc<Vec<u8>>>>,
    galois: Mutex<HashMap<u64, Arc<Vec<u8>>>>,
    programs: Mutex<HashMap<u64, Arc<StoredProgram>>>,
    next_program: AtomicU64,
}

impl Session {
    /// Stores (or replaces) the relinearization key bytes.
    pub fn set_relin(&self, bytes: Vec<u8>) {
        *self.relin.lock().expect("session poisoned") = Some(Arc::new(bytes));
    }

    /// Stores (or replaces) the Galois key bytes for one element.
    pub fn set_galois(&self, element: u64, bytes: Vec<u8>) {
        self.galois
            .lock()
            .expect("session poisoned")
            .insert(element, Arc::new(bytes));
    }

    /// The compressed bytes backing `kind`, or [`ErrorCode::MissingKey`].
    pub fn key_bytes(&self, kind: KeyKind) -> Result<Arc<Vec<u8>>, ErrorCode> {
        match kind {
            KeyKind::Relin => self
                .relin
                .lock()
                .expect("session poisoned")
                .clone()
                .ok_or(ErrorCode::MissingKey),
            KeyKind::Galois(element) => self
                .galois
                .lock()
                .expect("session poisoned")
                .get(&element)
                .cloned()
                .ok_or(ErrorCode::MissingKey),
        }
    }

    /// Stores a validated program and returns its id (ids start at 1 so
    /// 0 never names a program).
    pub fn store_program(&self, stored: StoredProgram) -> u64 {
        let id = 1 + self.next_program.fetch_add(1, Ordering::Relaxed);
        self.programs
            .lock()
            .expect("session poisoned")
            .insert(id, Arc::new(stored));
        id
    }

    /// Resolves a program id, or [`ErrorCode::Malformed`] (running a
    /// never-uploaded program is a client mistake, not a transient).
    pub fn program(&self, id: u64) -> Result<Arc<StoredProgram>, ErrorCode> {
        self.programs
            .lock()
            .expect("session poisoned")
            .get(&id)
            .cloned()
            .ok_or(ErrorCode::Malformed)
    }

    /// Total compressed key + program wire bytes this session stores.
    pub fn stored_bytes(&self) -> u64 {
        let relin = self
            .relin
            .lock()
            .expect("session poisoned")
            .as_ref()
            .map_or(0, |b| b.len() as u64);
        let galois: u64 = self
            .galois
            .lock()
            .expect("session poisoned")
            .values()
            .map(|b| b.len() as u64)
            .sum();
        let programs: u64 = self
            .programs
            .lock()
            .expect("session poisoned")
            .values()
            .map(|p| p.wire_len as u64)
            .sum();
        relin + galois + programs
    }
}

/// Allocates session ids and resolves them to sessions.
///
/// In a sharded server every shard runs its own manager over a shared
/// id counter discipline: a manager built with
/// [`SessionManager::new_for_shard`] only ever *mints* ids that
/// [`crate::shard::shard_of`] maps back to its shard, so a session's
/// placement is decided at Hello and every later frame naming that id
/// hashes to the owning shard. Managers for different shards of the
/// same count mint disjoint id sets by construction.
pub struct SessionManager {
    next_id: AtomicU64,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    /// The shard this manager mints ids for, of `shards` total.
    shard: usize,
    shards: usize,
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionManager {
    /// An empty manager; ids start at 1 so 0 never names a session.
    /// Equivalent to [`SessionManager::new_for_shard`]`(0, 1)` — the
    /// single-shard topology where every id is local.
    pub fn new() -> Self {
        Self::new_for_shard(0, 1)
    }

    /// An empty manager minting only ids that
    /// [`crate::shard::shard_of`] places on `shard` (of `shards`).
    /// Shards of one server share no state but mint from the same
    /// global sequence shape: each skips candidates owned elsewhere,
    /// so ids stay unique *and* self-locating across the fleet.
    ///
    /// # Panics
    ///
    /// Panics if `shard >= shards`.
    pub fn new_for_shard(shard: usize, shards: usize) -> Self {
        assert!(shard < shards, "shard {shard} out of range 0..{shards}");
        // Stagger the counters so concurrent shards don't scan the same
        // candidate prefix; any starting point works, the filter below
        // is what enforces placement.
        Self {
            next_id: AtomicU64::new(1 + shard as u64),
            sessions: Mutex::new(HashMap::new()),
            shard,
            shards,
        }
    }

    /// Opens a session and returns its id. The id is drawn from the
    /// candidate sequence until one hashes to this manager's shard — with
    /// one shard every candidate matches, reproducing the historical dense
    /// sequence.
    pub fn create(&self) -> u64 {
        let id = loop {
            let candidate = self.next_id.fetch_add(1, Ordering::Relaxed);
            if crate::shard::shard_of(candidate, self.shards) == self.shard {
                break candidate;
            }
        };
        self.sessions
            .lock()
            .expect("sessions poisoned")
            .insert(id, Arc::default());
        id
    }

    /// Resolves an id, or [`ErrorCode::NoSession`].
    pub fn get(&self, id: u64) -> Result<Arc<Session>, ErrorCode> {
        self.sessions
            .lock()
            .expect("sessions poisoned")
            .get(&id)
            .cloned()
            .ok_or(ErrorCode::NoSession)
    }

    /// Closes a session; the caller must also purge the key cache.
    pub fn close(&self, id: u64) -> Result<(), ErrorCode> {
        self.sessions
            .lock()
            .expect("sessions poisoned")
            .remove(&id)
            .map(|_| ())
            .ok_or(ErrorCode::NoSession)
    }

    /// Drops every open session at once (a chaos session-table loss, or
    /// an operator reset) and returns the ids it closed. Callers must
    /// also purge each one from the key cache, exactly as with
    /// [`SessionManager::close`].
    pub fn close_all(&self) -> Vec<u64> {
        let mut sessions = self.sessions.lock().expect("sessions poisoned");
        sessions.drain().map(|(id, _)| id).collect()
    }

    /// Number of open sessions.
    pub fn len(&self) -> usize {
        self.sessions.lock().expect("sessions poisoned").len()
    }

    /// True when no sessions are open.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Sum of compressed key bytes across all open sessions.
    pub fn stored_bytes(&self) -> u64 {
        self.sessions
            .lock()
            .expect("sessions poisoned")
            .values()
            .map(|s| s.stored_bytes())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_and_key_lookup() {
        let mgr = SessionManager::new();
        assert!(mgr.is_empty());
        let id = mgr.create();
        assert_ne!(id, 0);
        let s = mgr.get(id).unwrap();
        assert!(matches!(
            s.key_bytes(KeyKind::Relin),
            Err(ErrorCode::MissingKey)
        ));
        s.set_relin(vec![1, 2, 3]);
        s.set_galois(9, vec![4, 5]);
        assert_eq!(*s.key_bytes(KeyKind::Relin).unwrap(), vec![1, 2, 3]);
        assert_eq!(*s.key_bytes(KeyKind::Galois(9)).unwrap(), vec![4, 5]);
        assert!(matches!(
            s.key_bytes(KeyKind::Galois(10)),
            Err(ErrorCode::MissingKey)
        ));
        assert_eq!(s.stored_bytes(), 5);
        assert_eq!(mgr.stored_bytes(), 5);
        mgr.close(id).unwrap();
        assert!(matches!(mgr.get(id), Err(ErrorCode::NoSession)));
        assert!(matches!(mgr.close(id), Err(ErrorCode::NoSession)));
    }

    #[test]
    fn programs_are_stored_per_session_and_counted() {
        use fhe_program::program::KeyManifest;
        let mgr = SessionManager::new();
        let s = mgr.get(mgr.create()).unwrap();
        assert!(matches!(s.program(1), Err(ErrorCode::Malformed)));
        let stored = StoredProgram {
            program: Program::default(),
            info: ProgramInfo {
                manifest: KeyManifest::default(),
                instrs: Vec::new(),
                ladders: Vec::new(),
                outputs: Vec::new(),
            },
            wire_len: 42,
        };
        let id = s.store_program(stored);
        assert_ne!(id, 0);
        assert_eq!(s.program(id).unwrap().wire_len, 42);
        assert_eq!(s.stored_bytes(), 42);
        assert_eq!(mgr.stored_bytes(), 42);
    }

    #[test]
    fn sharded_managers_mint_self_locating_disjoint_ids() {
        let shards = 4;
        let managers: Vec<SessionManager> = (0..shards)
            .map(|s| SessionManager::new_for_shard(s, shards))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for (shard, mgr) in managers.iter().enumerate() {
            for _ in 0..16 {
                let id = mgr.create();
                assert_eq!(
                    crate::shard::shard_of(id, shards),
                    shard,
                    "id {id} minted by shard {shard} hashes elsewhere"
                );
                assert!(seen.insert(id), "id {id} minted twice across shards");
            }
        }
    }

    #[test]
    fn close_all_empties_the_table() {
        let mgr = SessionManager::new();
        let a = mgr.create();
        let b = mgr.create();
        let mut closed = mgr.close_all();
        closed.sort_unstable();
        assert_eq!(closed, [a, b]);
        assert!(mgr.is_empty());
        assert!(matches!(mgr.get(a), Err(ErrorCode::NoSession)));
        assert!(matches!(mgr.get(b), Err(ErrorCode::NoSession)));
        // Ids keep monotonically increasing across a reset.
        let c = mgr.create();
        assert!(c > b);
        assert_eq!(mgr.close_all(), [c]);
    }
}
