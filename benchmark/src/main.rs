fn main() {
    let started = std::time::Instant::now();
    std::process::exit(slim_benchmark::cli::main(
        started,
        std::env::args().skip(1).collect(),
    ));
}
