//! The high-water mark is process-global, so a sibling test freeing heap
//! between `reset_peak` and the allocation below would lower the live
//! size under it. This binary holds this one test, so nothing else
//! allocates concurrently.
#![cfg(feature = "alloc-track")]

use casyn_obs::alloc::{peak_bytes, reset_peak};

#[test]
fn peak_tracks_high_water_and_rebases() {
    reset_peak();
    let base = peak_bytes();
    let v: Vec<u8> = vec![0; 1 << 20];
    assert!(peak_bytes() >= base + (1 << 20));
    drop(v);
    let high = peak_bytes();
    reset_peak();
    // after rebasing, peak restarts from the (smaller) live size
    assert!(peak_bytes() <= high);
}
