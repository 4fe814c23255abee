//! End-to-end learning against an external process black box — the
//! contest's actual deployment shape (opaque executables).

use std::time::Duration;

use cirlearn::{Learner, LearnerConfig};
use cirlearn_oracle::{Oracle, ProcessOracle, ResilientOracle, RetryPolicy};

/// A shell black box: y = (a AND b) OR c over named inputs.
fn spawn_blackbox() -> ProcessOracle {
    ProcessOracle::spawn(
        "sh",
        &[
            "-c",
            r#"while read line; do
                   a=$(printf %s "$line" | cut -c1)
                   b=$(printf %s "$line" | cut -c2)
                   c=$(printf %s "$line" | cut -c3)
                   if { [ "$a" = 1 ] && [ "$b" = 1 ]; } || [ "$c" = 1 ]; then
                       echo 1
                   else
                       echo 0
                   fi
               done"#,
        ],
        vec!["a".into(), "b".into(), "c".into(), "noise".into()],
        vec!["y".into()],
    )
    .expect("sh is available")
}

#[test]
fn learner_recovers_a_process_black_box() {
    let mut oracle = spawn_blackbox();
    let mut cfg = LearnerConfig::fast();
    // Keep query volume small: the shell box forks per answer line.
    cfg.support_sampling.rounds = 64;
    let result = Learner::new(cfg).learn(&mut oracle);
    assert_eq!(result.circuit.num_inputs(), 4);
    // Verify the learned circuit against the process exhaustively.
    for m in 0..16u32 {
        let mut a = cirlearn_logic::Assignment::zeros(4);
        for k in 0..4 {
            if m >> k & 1 == 1 {
                a.set(cirlearn_logic::Var::new(k), true);
            }
        }
        let want = oracle.query(&a);
        let bits: Vec<bool> = a.iter().collect();
        assert_eq!(result.circuit.eval_bits(&bits), want, "m={m}");
    }
    assert!(result.queries > 0);
}

/// The same function as `spawn_blackbox`, answering every `flake`-th
/// line it reads with garbage (`flake` 0: never).
fn spawn_flaky_blackbox(flake: u32) -> ProcessOracle {
    let script = format!(
        r#"n=0; while read line; do
               n=$((n+1))
               if [ {flake} -gt 0 ] && [ $((n % {flake})) -eq 0 ]; then echo '?'; continue; fi
               case $line in 11*|??1*) echo 1;; *) echo 0;; esac
           done"#
    );
    ProcessOracle::spawn(
        "sh",
        &["-c", &script],
        vec!["a".into(), "b".into(), "c".into(), "noise".into()],
        vec!["y".into()],
    )
    .expect("sh is available")
}

#[test]
fn retried_batches_learn_what_a_clean_box_teaches() {
    // Every 7th line is garbage, so nearly every learner batch faults
    // at least once; retries must still hand the learner the clean
    // box's answers, in the same order, and count each pattern once.
    let mut cfg = LearnerConfig::fast();
    cfg.support_sampling.rounds = 64;
    let mut clean = spawn_flaky_blackbox(0);
    let want = Learner::new(cfg.clone()).learn(&mut clean);
    let policy = RetryPolicy {
        backoff_base: Duration::ZERO,
        ..RetryPolicy::default()
    };
    let mut flaky = ResilientOracle::new(spawn_flaky_blackbox(7), policy);
    let got = Learner::new(cfg).learn(&mut flaky);
    assert!(got.degraded.is_empty(), "retries must absorb every fault");
    assert!(flaky.fault_stats().retries > 0, "the box never flaked");
    assert_eq!(got.queries, want.queries);
    assert_eq!(flaky.queries(), clean.queries());
    assert_eq!(got.circuit.to_aiger_ascii(), want.circuit.to_aiger_ascii());
}
