//! Decoder fuzzing: arbitrary bytes fed to the crawler's on-disk
//! decoders (the lease journal and the crawler checkpoint) must come
//! back as an error, never as a panic or a half-decoded value.

use bingo_crawler::checkpoint::load_checkpoint;
use bingo_crawler::LeaseQueue;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn lease_journal_rejects_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        prop_assert!(LeaseQueue::from_journal_bytes(&bytes).is_err());
    }

    #[test]
    fn checkpoint_rejects_arbitrary_bytes(bytes in proptest::collection::vec(any::<u8>(), 0..2048)) {
        static CASE: AtomicUsize = AtomicUsize::new(0);
        let path = std::env::temp_dir().join(format!(
            "bingo-checkpoint-fuzz-{}-{}.json",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::write(&path, &bytes).unwrap();
        let loaded = load_checkpoint(&path);
        std::fs::remove_file(&path).ok();
        prop_assert!(loaded.is_err());
    }
}
