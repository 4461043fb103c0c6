//! The server child process of the socket workload: the benchmark's
//! socket deployment finds it next to the benchmark binary.

fn main() {
    if let Err(e) = paris::runtime::socket_child_main() {
        eprintln!("paris-server: {e}");
        std::process::exit(1);
    }
}
