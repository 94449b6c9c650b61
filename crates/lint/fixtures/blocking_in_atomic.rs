//! Fixture: blocking calls inside a *retryable* `atomically` closure.
//! Seven sites must be flagged as `blocking-in-atomic`: fsync, stream
//! write, channel recv, mutex lock, a thread sleep, and two
//! checkpoint-tier helpers (a store checkpoint, a WAL rotation). The
//! `tx.write`, the blocking work inside the deferred closure, and the
//! whole `synchronized` section are legal and must stay clean.

fn hot_path(rt: &Runtime, file: std::fs::File, sock: Socket, m: Mutex<u8>, rx: Receiver<u8>) {
    rt.atomically(|tx| {
        tx.write(&COUNTER, 1)?; // transactional write: not I/O
        file.sync_all().ok(); // FLAG: fsync in a retryable closure
        sock.write(b"payload"); // FLAG: stream write
        let _msg = rx.recv(); // FLAG: channel receive
        let _g = m.lock(); // FLAG: lock acquisition
        std::thread::sleep(Duration::from_millis(1)); // FLAG: sleep
        Ok(())
    });
}

fn checkpoint_tier(rt: &Runtime, store: KvStore, wal: Wal) {
    rt.atomically(|tx| {
        tx.write(&COUNTER, 2)?; // transactional write: not I/O
        store.checkpoint().ok(); // FLAG: log read, snapshot write + fsync + rename
        wal.rotate().ok(); // FLAG: waits out the group-commit leader
        Ok(())
    });
}

fn legal_homes(rt: &Runtime, file: Arc<std::fs::File>, o: Defer<Obj>) {
    rt.atomically(|tx| {
        let f2 = file.clone();
        // Deferred op: runs once, post-commit, under the held TxLocks —
        // exactly where blocking work belongs.
        atomic_defer(tx, &[&o.clone()], move || {
            f2.sync_all().ok();
        })
    });
    rt.synchronized(|tx| {
        // Irrevocable section: blocking I/O is legal by design.
        file.sync_all().ok();
        Ok(())
    });
}
