//! An `smc-fuzzer` equivalent: key enumeration and differential dumps.
//!
//! §3.2 of the paper: enumerate every key (optionally filtered to the
//! `P…` power-naming convention), dump values under an idle system and
//! under a stress workload, and flag the keys whose values moved — those
//! are the power-correlated candidates for the TVLA stage.

use crate::iokit::{IoKitError, SmcUserClient};
use crate::key::SmcKey;
use std::collections::BTreeMap;

/// A snapshot of key values at one moment.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KeyDump {
    values: BTreeMap<SmcKey, f64>,
}

impl KeyDump {
    /// Values by key.
    #[must_use]
    pub fn values(&self) -> &BTreeMap<SmcKey, f64> {
        &self.values
    }

    /// Number of dumped keys.
    #[must_use]
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the dump is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The dumped value for `key`, if present.
    #[must_use]
    pub fn get(&self, key: SmcKey) -> Option<f64> {
        self.values.get(&key).copied()
    }
}

/// One key that moved between the idle and busy dumps.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VaryingKey {
    /// The key.
    pub key: SmcKey,
    /// Idle-dump value.
    pub idle: f64,
    /// Busy-dump value.
    pub busy: f64,
    /// Absolute difference.
    pub abs_delta: f64,
}

/// Dump all keys readable through `client`, optionally filtered by a
/// leading character (the paper filters to `'P'`).
///
/// Keys whose reads fail (e.g. access-denied under mitigation) are skipped,
/// exactly as a fuzzer looping over `IOConnectCallStructMethod` would skip
/// erroring keys.
///
/// # Errors
///
/// Returns an error only if enumeration itself fails.
pub fn dump_keys(client: &SmcUserClient, prefix: Option<char>) -> Result<KeyDump, IoKitError> {
    let mut values = BTreeMap::new();
    for key in client.all_keys()? {
        if let Some(p) = prefix {
            if key.as_bytes()[0] != p as u8 {
                continue;
            }
        }
        if let Ok(v) = client.read_key(key) {
            values.insert(key, v.value);
        }
    }
    Ok(KeyDump { values })
}

/// Probe every key for writability by writing back its current value —
/// the §4 search for "modifiable SMC keys … related to reactive limit
/// configurations". Returns the keys that accepted the write.
///
/// # Errors
///
/// Returns an error only if enumeration itself fails.
pub fn probe_writable_keys(client: &SmcUserClient) -> Result<Vec<SmcKey>, IoKitError> {
    let mut writable = Vec::new();
    for key in client.all_keys()? {
        let Ok(current) = client.read_key(key) else { continue };
        if client.write_key(key, current.value).is_ok() {
            writable.push(key);
        }
    }
    Ok(writable)
}

/// Side-by-side comparison of two dumps: keys present in both whose values
/// differ by more than `abs_threshold`.
#[must_use]
pub fn diff_dumps(idle: &KeyDump, busy: &KeyDump, abs_threshold: f64) -> Vec<VaryingKey> {
    let mut out = Vec::new();
    for (&key, &idle_v) in idle.values() {
        if let Some(busy_v) = busy.get(key) {
            let abs_delta = (busy_v - idle_v).abs();
            if abs_delta > abs_threshold {
                out.push(VaryingKey { key, idle: idle_v, busy: busy_v, abs_delta });
            }
        }
    }
    out.sort_by(|a, b| b.abs_delta.total_cmp(&a.abs_delta));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::firmware::Smc;
    use crate::iokit::share;
    use crate::key::key;
    use crate::sensors::SensorSet;
    use psc_soc::{PowerRails, WindowReport};

    fn report(p: f64, est: f64, temp: f64) -> WindowReport {
        WindowReport {
            duration_s: 1.0,
            rails: PowerRails::assemble(p, 0.3, 0.4, 0.5, 0.88, 1.5),
            estimated_cpu_power_w: est,
            estimated_p_cluster_w: est * 0.8,
            estimated_e_cluster_w: est * 0.2,
            p_freq_ghz: 3.5,
            e_freq_ghz: 2.4,
            temperature_c: temp,
            p_core_reps: 1.0e7,
            ..WindowReport::default()
        }
    }

    fn client_with(p: f64, est: f64, temp: f64) -> SmcUserClient {
        let mut smc = Smc::new(SensorSet::macbook_air_m2(), 11);
        smc.observe_window(&report(p, est, temp));
        SmcUserClient::new(share(smc))
    }

    #[test]
    fn dump_filters_by_prefix() {
        let client = client_with(2.0, 2.3, 40.0);
        let all = dump_keys(&client, None).unwrap();
        let p_only = dump_keys(&client, Some('P')).unwrap();
        assert!(p_only.len() < all.len());
        assert!(p_only.values().keys().all(SmcKey::is_power_key));
        assert!(p_only.get(key("PHPC")).is_some());
        assert!(p_only.get(key("TC0P")).is_none());
    }

    #[test]
    fn diff_finds_workload_dependent_keys() {
        // Idle system vs heavily loaded system.
        let idle = dump_keys(&client_with(0.2, 0.25, 28.0), Some('P')).unwrap();
        let busy = dump_keys(&client_with(11.0, 12.0, 70.0), Some('P')).unwrap();
        let varying = diff_dumps(&idle, &busy, 0.1);
        let names: Vec<String> = varying.iter().map(|v| v.key.to_string()).collect();
        for expected in ["PHPC", "PDTR", "PHPS", "PMVC", "PSTR"] {
            assert!(names.contains(&expected.to_owned()), "missing {expected} in {names:?}");
        }
        // Static config keys must NOT vary.
        for fixed in ["PMAX", "P0IR", "PBLC", "PLIM"] {
            assert!(!names.contains(&fixed.to_owned()), "{fixed} wrongly flagged");
        }
    }

    #[test]
    fn diff_sorted_by_delta_descending() {
        let idle = dump_keys(&client_with(0.2, 0.25, 28.0), Some('P')).unwrap();
        let busy = dump_keys(&client_with(11.0, 12.0, 70.0), Some('P')).unwrap();
        let varying = diff_dumps(&idle, &busy, 0.1);
        for w in varying.windows(2) {
            assert!(w[0].abs_delta >= w[1].abs_delta);
        }
    }

    #[test]
    fn empty_diff_when_identical() {
        let d = dump_keys(&client_with(2.0, 2.3, 40.0), Some('P')).unwrap();
        // Large threshold → nothing flagged even against itself.
        assert!(diff_dumps(&d, &d, 1.0e6).is_empty());
    }

    #[test]
    fn dump_skips_denied_keys() {
        use crate::mitigation::MitigationConfig;
        let mut smc = Smc::new(SensorSet::macbook_air_m2(), 11);
        smc.observe_window(&report(2.0, 2.3, 40.0));
        smc.set_mitigation(MitigationConfig::restrict_access());
        let client = SmcUserClient::new(share(smc));
        let dump = dump_keys(&client, Some('P')).unwrap();
        // All live power keys denied; only static non-power-related P keys…
        // actually static P-keys are power_related too, so the P-dump is empty.
        assert!(dump.get(key("PHPC")).is_none());
    }
}

#[cfg(test)]
mod write_probe_tests {
    use super::*;
    use crate::firmware::Smc;
    use crate::iokit::share;
    use crate::key::key;
    use crate::sensors::SensorSet;

    #[test]
    fn probe_finds_only_tunable_keys_and_no_limit_keys() {
        let smc = Smc::new(SensorSet::macbook_air_m2(), 3);
        let client = SmcUserClient::new(share(smc));
        let writable = probe_writable_keys(&client).unwrap();
        assert!(writable.contains(&key("F0Tg")), "fan target is writable");
        assert!(writable.contains(&key("KPPW")));
        // §4's negative result: no power/limit key accepts writes.
        for k in &writable {
            assert!(!k.is_power_key(), "power key {k} must not be writable");
        }
        assert!(!writable.contains(&key("PMAX")));
        assert!(!writable.contains(&key("PLIM")));
    }

    #[test]
    fn written_value_reads_back() {
        let smc = Smc::new(SensorSet::macbook_air_m2(), 3);
        let client = SmcUserClient::new(share(smc));
        client.write_key(key("F0Tg"), 1800.0).unwrap();
        assert_eq!(client.read_key(key("F0Tg")).unwrap().value, 1800.0);
    }

    #[test]
    fn read_only_key_write_rejected() {
        let smc = Smc::new(SensorSet::macbook_air_m2(), 3);
        let client = SmcUserClient::new(share(smc));
        assert_eq!(client.write_key(key("PMAX"), 1.0), Err(IoKitError::NotWritable(key("PMAX"))));
        assert_eq!(client.write_key(key("ZZZZ"), 1.0), Err(IoKitError::KeyNotFound(key("ZZZZ"))));
    }
}
