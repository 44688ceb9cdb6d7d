//! Driving a `td serve` process from a test: start it on a program with its
//! store and socket in a directory of its own, read its `stats`, stop it.
//! `cli.rs` and `serve_counts.rs` compile it in with `#[path]`.
//!
//! The process belongs to a [`Serve`] guard: a test that fails before it
//! stops its server still ends it, so no `td serve` outlives the test
//! holding its socket and store.

use std::process::{Child, Command, Stdio};

fn td() -> Command {
    Command::new(env!("CARGO_BIN_EXE_td"))
}

/// A fresh directory for one test's server, under the system's temp dir.
pub fn serve_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("td-cli-tests").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A running `td serve`. Dropped before it was waited for ([`stop_serve`],
/// [`Serve::output`]) — a test that panicked, say — it kills the process
/// and waits for it.
pub struct Serve(Option<Child>);

impl Serve {
    /// Own `server`, a `td serve` process a test started.
    pub fn guard(server: Child) -> Serve {
        Serve(Some(server))
    }

    /// Wait for the server to exit, and take what it printed.
    pub fn output(mut self) -> std::process::Output {
        let child = self.0.take().expect("a server is waited for once");
        child.wait_with_output().unwrap()
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Some(mut child) = self.0.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// Start `td <flags> serve <file>` with its store and socket in `dir`, and
/// connect to it once it accepts.
pub fn spawn_serve(
    flags: &[String],
    file: &std::path::Path,
    dir: &std::path::Path,
) -> (Serve, td_serve::Client) {
    let socket = dir.join("td.sock");
    let server = td()
        .args(flags)
        .arg(format!("--db={}", dir.join("db").display()))
        .arg(format!("--socket={}", socket.display()))
        .args(["serve"])
        .arg(file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let server = Serve::guard(server);
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
    loop {
        match td_serve::Client::connect(&socket) {
            Ok(client) => return (server, client),
            Err(e) => assert!(
                std::time::Instant::now() < deadline,
                "server did not come up: {e}"
            ),
        }
        std::thread::sleep(std::time::Duration::from_millis(25));
    }
}

/// Stop a server started by [`spawn_serve`] and wait for a clean exit.
pub fn stop_serve(server: Serve, mut client: td_serve::Client) {
    assert_eq!(client.request("stop").unwrap(), "ok stopping");
    let out = server.output();
    assert!(out.status.success(), "{out:?}");
}

/// `stats`' `interned_syms` and `interned_bytes`.
pub fn interned(client: &mut td_serve::Client) -> (String, String) {
    let line = client.stats().unwrap();
    let field = |key: &str| {
        let value = line.split_whitespace().find_map(|f| f.strip_prefix(key));
        value
            .unwrap_or_else(|| panic!("no `{key}` in {line}"))
            .to_owned()
    };
    (field("interned_syms="), field("interned_bytes="))
}
