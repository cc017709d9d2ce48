//! The external memory holding the Virtual Bit-Streams of every task
//! (the "external memory" block of Figure 2).

use crate::error::RuntimeError;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use vbs_core::{Vbs, VbsError, VbsHeader, VbsLayout, VbsView};

/// One stored stream: its serialized bytes and what validating them found.
#[derive(Debug, Clone)]
struct Stored {
    bytes: Vec<u8>,
    /// Verdict of the one validating walk over `bytes` ([`VbsView::parse`]:
    /// CRC footer, every record), taken on first use. `bytes` never change
    /// while this entry lives — a re-store replaces the whole entry — so
    /// the verdict cannot go stale.
    layout: OnceLock<Result<VbsLayout, VbsError>>,
}

impl Stored {
    /// The remembered verdict, taken now if this is the first use.
    fn layout(&self) -> Result<&VbsLayout, RuntimeError> {
        self.layout
            .get_or_init(|| VbsView::parse(&self.bytes).map(|view| view.layout()))
            .as_ref()
            .map_err(|e| RuntimeError::Decode(e.clone()))
    }
}

/// A named store of serialized Virtual Bit-Streams.
///
/// Streams are kept in their serialized byte form — exactly what would sit in
/// an external flash or DDR memory — and are decoded where they lie. The
/// first [`VbsRepository::view`] or [`VbsRepository::header`] after a store
/// validates the bytes in one allocation-free walk and remembers what it
/// found (a [`VbsLayout`], a few words); every later call hands out a view
/// of the same bytes in O(1) without walking them again, so no load parses
/// or copies a stream.
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
            layout: OnceLock::new(),
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

    /// The validated view of a stored task — what a load decodes. The
    /// first call after a store (or [`VbsRepository::header`]) walks the
    /// bytes once; later calls rebuild the view from the remembered layout
    /// in O(1), and a stream that failed validation fails here on every
    /// call.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownTask`] for unknown names and
    /// [`RuntimeError::Decode`] if the stored bytes are corrupted.
    pub fn view(&self, name: &str) -> Result<VbsView<'_>, RuntimeError> {
        let stored = self.stored(name)?;
        Ok(stored.layout()?.view(&stored.bytes))
    }

    /// The shape and architecture of a stored task, without its records —
    /// what placement and a decode-cache lookup need — from the same
    /// remembered verdict as [`VbsRepository::view`].
    ///
    /// # Errors
    ///
    /// As [`VbsRepository::view`].
    pub fn header(&self, name: &str) -> Result<VbsHeader, RuntimeError> {
        Ok(self.stored(name)?.layout()?.header())
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

    /// The stored stream of a task, copied out into owned records.
    fn fetch(repo: &VbsRepository, name: &str) -> Result<Vbs, RuntimeError> {
        repo.view(name)?.to_owned().map_err(RuntimeError::from)
    }

    #[test]
    fn store_fetch_roundtrip() {
        let vbs = Vbs::new(ArchSpec::paper_example(), 1, 3, 3, Vec::new()).unwrap();
        let mut repo = VbsRepository::new();
        let size = repo.store("empty", &vbs);
        assert!(size > 0);
        assert_eq!(repo.len(), 1);
        assert_eq!(repo.stored_size("empty"), Some(size));
        assert_eq!(fetch(&repo, "empty").unwrap(), vbs);
        assert!(matches!(
            fetch(&repo, "missing"),
            Err(RuntimeError::UnknownTask { .. })
        ));
    }

    #[test]
    fn corrupted_streams_surface_as_decode_errors() {
        let mut repo = VbsRepository::new();
        repo.store_bytes("bad", vec![0xff; 3]);
        assert!(matches!(fetch(&repo, "bad"), Err(RuntimeError::Decode(_))));
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
        assert_eq!(header, fetch(&repo, "t").unwrap().header());
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
            assert!(matches!(fetch(&repo, "t"), Err(RuntimeError::Decode(_))));
        }

        repo.store("t", &shaped(3, 3));
        assert_eq!(repo.header("t").unwrap().width, 3);
    }

    /// A view is rebuilt from the remembered verdict: the stream it reads
    /// is the stored one, and a corrupted re-store fails with the same
    /// error on every call, through every accessor.
    #[test]
    fn views_follow_the_remembered_verdict() {
        let mut repo = VbsRepository::new();
        repo.store("t", &shaped(4, 2));
        for _ in 0..2 {
            let view = repo.view("t").unwrap();
            assert_eq!(view.to_owned().unwrap(), shaped(4, 2));
        }

        repo.store_bytes("t", corrupted(&shaped(2, 6)));
        let Err(RuntimeError::Decode(first)) = repo.view("t") else {
            panic!("a corrupted re-store must fail validation");
        };
        for _ in 0..3 {
            for result in [
                repo.view("t").map(|view| view.header()),
                repo.header("t"),
                fetch(&repo, "t").map(|vbs| vbs.header()),
            ] {
                assert!(matches!(result, Err(RuntimeError::Decode(ref e)) if *e == first));
            }
        }
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
        assert_eq!(fetch(&before, "t").unwrap(), shaped(3, 3));
        assert!(matches!(after.header("t"), Err(RuntimeError::Decode(_))));
        assert!(matches!(repo.header("t"), Err(RuntimeError::Decode(_))));
    }
}
