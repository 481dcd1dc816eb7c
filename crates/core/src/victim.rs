//! Victim programs holding the AES secret.
//!
//! §3.1 threat model: the victim owns a secret AES key; the attacker is an
//! unprivileged user-space program that may *use* the victim's encryption
//! service (known-plaintext: it submits plaintexts and receives
//! ciphertexts) but can never read the key. Two victims are modelled:
//!
//! * **User-space victim** (§3.3/§3.4): three threads on P-cores encrypting
//!   the same input simultaneously — the paper replicates the workload to
//!   amplify the data-dependent power signal.
//! * **Kernel-module victim** (§3.5): an encryption service behind a
//!   syscall boundary — a single driver thread, plus extra electrical noise
//!   from the system-call invocations. Both effects halve the SNR, which is
//!   the paper's explanation for the ≈2× slower GE convergence in Fig. 1(b).

use psc_aes::leakage::LeakageModel;
use psc_soc::sched::SchedAttrs;
use psc_soc::workload::{shared_plaintext, AesSignal, AesWorkload};
use psc_soc::{Soc, ThreadId};
use std::sync::Arc;

/// Where the victim runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VictimKind {
    /// User-space process, 3 P-core threads with identical input.
    UserSpace,
    /// Kernel-mode driver: 1 thread, syscall-invocation noise.
    KernelModule,
}

impl VictimKind {
    /// Number of victim threads the paper runs for this kind.
    #[must_use]
    pub fn thread_count(self) -> usize {
        match self {
            VictimKind::UserSpace => 3,
            VictimKind::KernelModule => 1,
        }
    }

    /// Extra window-level electrical noise σ (watts) contributed by the
    /// syscall path (zero for the user-space victim).
    #[must_use]
    pub fn syscall_noise_sigma_w(self) -> f64 {
        match self {
            VictimKind::UserSpace => 0.0,
            VictimKind::KernelModule => 1.2e-3,
        }
    }
}

/// An installed AES victim: threads on the simulated SoC plus the
/// encryption-service interface the attacker calls.
#[derive(Debug)]
pub struct AesVictim {
    kind: VictimKind,
    secret_key: [u8; 16],
    /// A replica of the threads' workload: it shares their plaintext and
    /// memo (ciphertext and activity), and runs the service's encryption.
    workload: AesWorkload,
    thread_ids: Vec<ThreadId>,
}

impl AesVictim {
    /// Install the victim's threads on `soc`.
    ///
    /// `signal` calibrates the electrical signature per thread (device
    /// dependent); the kind's syscall noise is folded in automatically.
    ///
    /// # Panics
    ///
    /// Panics if `key` is not a valid AES-128 key (16 bytes by type).
    #[must_use]
    pub fn install(soc: &mut Soc, kind: VictimKind, key: [u8; 16], signal: AesSignal) -> Self {
        Self::install_with_threads(soc, kind, key, signal, kind.thread_count())
    }

    /// As [`Self::install`] with an explicit victim thread count — used by
    /// the thread-count ablation study (the paper amplifies leakage by
    /// replicating the workload across P-cores; this knob quantifies how
    /// much each replica buys).
    #[must_use]
    pub fn install_with_threads(
        soc: &mut Soc,
        kind: VictimKind,
        key: [u8; 16],
        signal: AesSignal,
        threads: usize,
    ) -> Self {
        let model = Arc::new(LeakageModel::new(&key).expect("16-byte key is always valid"));
        let plaintext = shared_plaintext([0u8; 16]);
        let effective = AesSignal {
            w_per_unit: signal.w_per_unit,
            residual_sigma_w: (signal.residual_sigma_w.powi(2)
                + kind.syscall_noise_sigma_w().powi(2))
            .sqrt(),
        };
        // Replicas are clones of one workload, so all victim threads share
        // the per-plaintext memo: the fused leakage kernel runs once per
        // distinct input, not once per thread or per repeat.
        let workload = AesWorkload::with_signal(model, plaintext, effective);
        let thread_ids = (0..threads)
            .map(|i| {
                let name = match kind {
                    VictimKind::UserSpace => format!("victim-user-{i}"),
                    VictimKind::KernelModule => format!("victim-kext-{i}"),
                };
                soc.spawn(name, SchedAttrs::realtime_p_core(), Box::new(workload.clone()))
            })
            .collect();
        Self { kind, secret_key: key, workload, thread_ids }
    }

    /// The victim kind.
    #[must_use]
    pub fn kind(&self) -> VictimKind {
        self.kind
    }

    /// Thread ids of the installed victim threads.
    #[must_use]
    pub fn thread_ids(&self) -> &[ThreadId] {
        &self.thread_ids
    }

    /// The encryption service: the attacker submits a plaintext; the victim
    /// loads it into its (repeating) encryption loop and returns the
    /// ciphertext — mirroring the paper's driver that "takes plaintext
    /// from a user application, performs encryption repeatedly, and
    /// then stores the resulting ciphertext in a buffer". The same AES
    /// pass yields the plaintext's leakage activity for the threads, and a
    /// repeat of the last plaintext (TVLA's fixed classes) runs no pass.
    pub fn request_encrypt(&self, plaintext: [u8; 16]) -> [u8; 16] {
        self.workload.encrypt(plaintext)
    }

    /// Ground-truth secret (round-0) key — for *evaluation only*; the
    /// attacker never calls this.
    #[must_use]
    pub fn secret_key_for_eval(&self) -> [u8; 16] {
        self.secret_key
    }

    /// Ground-truth round-10 key — for evaluating ciphertext-side models.
    #[must_use]
    pub fn round10_key_for_eval(&self) -> [u8; 16] {
        *self.workload.model().cipher().schedule().round_key(10)
    }

    /// Remove the victim's threads from the SoC.
    pub fn uninstall(self, soc: &mut Soc) {
        for id in self.thread_ids {
            soc.kill(id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psc_aes::Aes;
    use psc_soc::{ClusterKind, SocSpec};

    fn soc() -> Soc {
        Soc::new(SocSpec::macbook_air_m2(), 7)
    }

    #[test]
    fn user_victim_installs_three_p_core_threads() {
        let mut soc = soc();
        let victim =
            AesVictim::install(&mut soc, VictimKind::UserSpace, [1u8; 16], AesSignal::default());
        assert_eq!(victim.thread_ids().len(), 3);
        for &id in victim.thread_ids() {
            assert_eq!(soc.cluster_of(id), Some(ClusterKind::Performance));
        }
    }

    #[test]
    fn kernel_victim_is_single_threaded() {
        let mut soc = soc();
        let victim =
            AesVictim::install(&mut soc, VictimKind::KernelModule, [1u8; 16], AesSignal::default());
        assert_eq!(victim.thread_ids().len(), 1);
        assert_eq!(victim.kind(), VictimKind::KernelModule);
    }

    #[test]
    fn service_returns_correct_ciphertext() {
        let mut soc = soc();
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let victim = AesVictim::install(&mut soc, VictimKind::UserSpace, key, AesSignal::default());
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let ct = victim.request_encrypt(pt);
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(ct, expected);
    }

    #[test]
    fn service_updates_the_running_plaintext() {
        let mut soc = soc();
        let victim =
            AesVictim::install(&mut soc, VictimKind::UserSpace, [7u8; 16], AesSignal::default());
        victim.request_encrypt([0xABu8; 16]);
        // The victim threads' power now reflects the submitted plaintext;
        // observable through data-dependent window rails.
        let w1 = soc.run_window(1.0).rails.p_cluster_w;
        victim.request_encrypt([0x00u8; 16]);
        let w2 = soc.run_window(1.0).rails.p_cluster_w;
        // Not asserting inequality of single noisy samples; assert the
        // plaintext handle itself changed behaviour via repeated means.
        let mut sum1 = 0.0;
        let mut sum2 = 0.0;
        for _ in 0..200 {
            victim.request_encrypt([0xABu8; 16]);
            sum1 += soc.run_window(1.0).rails.p_cluster_w;
            victim.request_encrypt([0x00u8; 16]);
            sum2 += soc.run_window(1.0).rails.p_cluster_w;
        }
        assert!((sum1 - sum2).abs() > 1e-3, "means must differ: {w1} {w2}");
    }

    #[test]
    fn kernel_victim_noisier_than_user() {
        assert!(VictimKind::KernelModule.syscall_noise_sigma_w() > 0.0);
        assert_eq!(VictimKind::UserSpace.syscall_noise_sigma_w(), 0.0);
    }

    #[test]
    fn round10_key_matches_schedule() {
        let mut soc = soc();
        let key = [3u8; 16];
        let victim = AesVictim::install(&mut soc, VictimKind::UserSpace, key, AesSignal::default());
        let aes = Aes::new(&key).unwrap();
        assert_eq!(victim.round10_key_for_eval(), *aes.schedule().round_key(10));
        assert_eq!(victim.secret_key_for_eval(), key);
    }

    #[test]
    fn uninstall_removes_threads() {
        let mut soc = soc();
        let victim =
            AesVictim::install(&mut soc, VictimKind::UserSpace, [1u8; 16], AesSignal::default());
        assert_eq!(soc.threads().len(), 3);
        victim.uninstall(&mut soc);
        assert_eq!(soc.threads().len(), 0);
    }
}
