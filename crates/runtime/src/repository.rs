//! The external memory holding the Virtual Bit-Streams of every task
//! (the "external memory" block of Figure 2).

use crate::error::RuntimeError;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use vbs_core::{Vbs, VbsError, VbsHeader};

/// One stored stream: its serialized bytes and what validating them found.
#[derive(Debug, Clone)]
struct Stored {
    bytes: Vec<u8>,
    /// Verdict of the one full parse of `bytes` (CRC footer, every record),
    /// taken on the first [`VbsRepository::header`] call. `bytes` never
    /// change while this entry lives — a re-store replaces the whole entry
    /// — so the verdict cannot go stale.
    header: OnceLock<Result<VbsHeader, VbsError>>,
}

/// A named store of serialized Virtual Bit-Streams.
///
/// Streams are kept in their serialized byte form — exactly what would sit in
/// an external flash or DDR memory — so the repository also exercises the
/// binary format end to end. The records are parsed anew by every
/// [`VbsRepository::fetch`] and never retained; the shape of a stream
/// ([`VbsRepository::header`]) is learned by one full validating parse per
/// store and remembered.
#[derive(Debug, Clone, Default)]
pub struct VbsRepository {
    streams: BTreeMap<String, Stored>,
}

impl VbsRepository {
    /// Creates an empty repository.
    pub fn new() -> Self {
        VbsRepository::default()
    }

    /// Stores a task's VBS under `name`, replacing any previous stream with
    /// the same name. Returns the size of the serialized stream in bytes.
    pub fn store(&mut self, name: impl Into<String>, vbs: &Vbs) -> usize {
        let bytes = vbs.to_bytes();
        let len = bytes.len();
        self.store_bytes(name, bytes);
        len
    }

    /// Stores an already-serialized stream, replacing any previous stream
    /// with the same name.
    pub fn store_bytes(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        let stored = Stored {
            bytes,
            header: OnceLock::new(),
        };
        self.streams.insert(name.into(), stored);
    }

    fn stored(&self, name: &str) -> Result<&Stored, RuntimeError> {
        self.streams
            .get(name)
            .ok_or_else(|| RuntimeError::UnknownTask {
                name: name.to_string(),
            })
    }

    /// Fetches and parses the VBS of a task — the only way to get its
    /// records, for a caller that is about to decode them.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTask`] for unknown names and
    /// [`RuntimeError::Decode`] if the stored bytes are corrupted.
    pub fn fetch(&self, name: &str) -> Result<Vbs, RuntimeError> {
        Vbs::from_bytes(&self.stored(name)?.bytes).map_err(RuntimeError::from)
    }

    /// The shape and architecture of a stored task, without its records —
    /// what placement and a decode-cache lookup need. The first call after
    /// a store validates the whole stream exactly as
    /// [`VbsRepository::fetch`] does; later calls return the remembered
    /// verdict, so a stream that fails to parse fails here on every call.
    ///
    /// # Errors
    ///
    /// As [`VbsRepository::fetch`].
    pub fn header(&self, name: &str) -> Result<VbsHeader, RuntimeError> {
        let stored = self.stored(name)?;
        stored
            .header
            .get_or_init(|| Vbs::from_bytes(&stored.bytes).map(|vbs| vbs.header()))
            .clone()
            .map_err(RuntimeError::from)
    }

    /// Raw serialized size of a stored task, in bytes.
    pub fn stored_size(&self, name: &str) -> Option<usize> {
        self.bytes(name).map(<[u8]>::len)
    }

    /// The raw serialized bytes of a stored task — what a fault injector
    /// mutates to model external-memory corruption.
    pub fn bytes(&self, name: &str) -> Option<&[u8]> {
        self.streams.get(name).map(|s| s.bytes.as_slice())
    }

    /// Names of the stored tasks, sorted.
    pub fn task_names(&self) -> Vec<&str> {
        self.streams.keys().map(String::as_str).collect()
    }

    /// Number of stored tasks.
    pub fn len(&self) -> usize {
        self.streams.len()
    }

    /// Whether the repository is empty.
    pub fn is_empty(&self) -> bool {
        self.streams.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::ArchSpec;

    #[test]
    fn store_fetch_roundtrip() {
        let vbs = Vbs::new(ArchSpec::paper_example(), 1, 3, 3, Vec::new()).unwrap();
        let mut repo = VbsRepository::new();
        let size = repo.store("empty", &vbs);
        assert!(size > 0);
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.stored_size("empty"), Some(size));
        assert_eq!(repo.fetch("empty").unwrap(), vbs);
        assert!(matches!(
            repo.fetch("missing"),
            Err(RuntimeError::UnknownTask { .. })
        ));
    }

    #[test]
    fn corrupted_streams_surface_as_decode_errors() {
        let mut repo = VbsRepository::new();
        repo.store_bytes("bad", vec![0xff; 3]);
        assert!(matches!(repo.fetch("bad"), Err(RuntimeError::Decode(_))));
        assert_eq!(repo.task_names(), vec!["bad"]);
    }

    fn shaped(width: u16, height: u16) -> Vbs {
        Vbs::new(ArchSpec::paper_example(), 1, width, height, Vec::new()).unwrap()
    }

    /// A checked stream with one body bit flipped: the CRC footer rejects it.
    fn corrupted(vbs: &Vbs) -> Vec<u8> {
        let mut bytes = vbs.to_bytes_checked();
        bytes[5] ^= 0x10;
        bytes
    }

    #[test]
    fn header_is_the_fetched_streams_shape() {
        let mut repo = VbsRepository::new();
        repo.store("t", &shaped(3, 5));
        let header = repo.header("t").unwrap();
        assert_eq!(header, repo.fetch("t").unwrap().header());
        assert_eq!((header.width, header.height), (3, 5));
        assert_eq!(header, repo.header("t").unwrap());
        assert!(matches!(
            repo.header("missing"),
            Err(RuntimeError::UnknownTask { .. })
        ));
    }

    #[test]
    fn restoring_a_name_resets_the_header_memo() {
        let mut repo = VbsRepository::new();
        repo.store("t", &shaped(3, 3));
        assert_eq!(repo.header("t").unwrap().width, 3);

        repo.store("t", &shaped(4, 2));
        assert_eq!(repo.header("t").unwrap(), shaped(4, 2).header());

        repo.store_bytes("t", shaped(2, 6).to_bytes_checked());
        assert_eq!(repo.header("t").unwrap(), shaped(2, 6).header());

        repo.store_bytes("t", corrupted(&shaped(2, 6)));
        for _ in 0..3 {
            assert!(matches!(repo.header("t"), Err(RuntimeError::Decode(_))));
            assert!(matches!(repo.fetch("t"), Err(RuntimeError::Decode(_))));
        }

        repo.store("t", &shaped(3, 3));
        assert_eq!(repo.header("t").unwrap().width, 3);
    }

    #[test]
    fn a_clone_keeps_the_verdict_of_the_bytes_it_copied() {
        let mut repo = VbsRepository::new();
        repo.store("t", &shaped(3, 3));
        assert_eq!(repo.header("t").unwrap().width, 3);
        let before = repo.clone();

        repo.store_bytes("t", corrupted(&shaped(3, 3)));
        let after = repo.clone();

        assert_eq!(before.header("t").unwrap().width, 3);
        assert_eq!(before.fetch("t").unwrap(), shaped(3, 3));
        assert!(matches!(after.header("t"), Err(RuntimeError::Decode(_))));
        assert!(matches!(repo.header("t"), Err(RuntimeError::Decode(_))));
    }
}
