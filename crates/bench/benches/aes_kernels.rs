//! Kernel benches: the AES substrate (block throughput, tracing overhead,
//! ARMv8 instruction path, key expansion). The leakage evaluation is
//! timed in `leakage_kernels`.

use psc_aes::armv8::Armv8Aes;
use psc_aes::{Aes, KeySchedule};
use psc_bench::measure::Run;
use std::hint::black_box;

fn main() {
    let key = [0x2Bu8; 16];
    let aes = Aes::new(&key).expect("valid key");
    let hw = Armv8Aes::new(&key).expect("valid key");
    let pt = [0xA5u8; 16];
    let ct = aes.encrypt_block(&pt);
    let key256 = [7u8; 32];

    let mut run = Run::start("aes_kernels");
    run.measure_ns("aes/encrypt_block", || {
        black_box(aes.encrypt_block(black_box(&pt)));
    });
    run.measure_ns("aes/decrypt_block", || {
        black_box(aes.decrypt_block(black_box(&ct)));
    });
    run.measure_ns("aes/encrypt_traced", || {
        black_box(aes.encrypt_traced(black_box(&pt)));
    });
    run.measure_ns("aes/armv8_encrypt_block", || {
        black_box(hw.encrypt_block(black_box(&pt)));
    });
    run.measure_ns("aes/key_schedule_128", || {
        black_box(KeySchedule::new(black_box(&key)).expect("valid"));
    });
    run.measure_ns("aes/key_schedule_256", || {
        black_box(KeySchedule::new(black_box(&key256)).expect("valid"));
    });
    run.finish();
}
