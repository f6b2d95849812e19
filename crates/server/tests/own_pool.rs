//! A listener built on its own executor keeps large records on that
//! executor: the solve pipeline resolves its fork width against the pool
//! the record runs on, so the process-wide global pool is never created.
//!
//! This lives in a test binary of its own because the global executor is
//! process-wide: any other test that touched it first would make
//! `configure_global` return `false` whatever the listener did.

use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::Arc;
use std::time::Duration;

use busytime_core::pool::Executor;
use busytime_core::solve::SolverRegistry;
use busytime_server::{ConnLog, ListenConfig, ListenMode, Listener};

#[test]
fn a_large_record_forks_on_the_listeners_pool_not_the_global_one() {
    let config = ListenConfig {
        log: ConnLog::Quiet,
        ..ListenConfig::default()
    };
    let mode = ListenMode::Tcp("127.0.0.1:0".to_string());
    let listener = Listener::bind(&mode, Arc::new(SolverRegistry::with_defaults()), config)
        .unwrap()
        .executor(Executor::new(2));
    let addr = listener.local_addr().unwrap();
    let shutdown = listener.shutdown_token();
    let server = std::thread::spawn(move || listener.run());

    // 10k jobs: past the size threshold where the default `auto` policy
    // resolves a fork width and FirstFit runs its stages
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(
            b"{\"id\": \"big\", \"generator\": {\"family\": \"uniform\", \"n\": 10000, \"g\": 3, \"seed\": 1}, \"solver\": \"first-fit\"}\n",
        )
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    let mut answer = String::new();
    BufReader::new(stream).read_line(&mut answer).unwrap();
    assert!(answer.contains(r#""id": "big""#), "{answer}");
    assert!(answer.contains(r#""ok": true"#), "{answer}");

    shutdown.cancel();
    server.join().unwrap().unwrap();
    assert!(
        Executor::configure_global(1),
        "serving the record created the global executor"
    );
}
