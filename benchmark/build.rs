//! Links the benchmark binary with `align.ld`; that file says why.

fn main() {
    let dir = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=align.ld");
    println!("cargo:rustc-link-arg-bins=-Wl,-T,{dir}/align.ld");
}
