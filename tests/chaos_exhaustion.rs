//! Chaos harness for resource governance (DESIGN.md §10): every
//! exhaustion vector in the [`ExhaustMutator`] catalogue must terminate
//! with a structured REJECT under a tight budget — never a hang, an
//! OOM, or an abort — and the verdict must be identical at every point
//! of the shared matrix (`tests/common`). Honest advice must stay
//! ACCEPTed under the default limits, and under tight ones.

mod common;

use common::{audit_at, audit_points, matrix_with, Outcome, THREADS};
use karousos::{
    audit_encoded_with_obs, encode_advice, run_instrumented_server, Advice, AuditOptions,
    CollectorMode, ExhaustMutator, Limits, RejectReason,
};
use kem::dsl::*;
use kem::{Program, ProgramBuilder, RunOutput, SchedPolicy, ServerConfig, Stmt, Value};
use kvstore::IsolationLevel;

/// A handler whose loop bound is advice-fed: the recorded nondet
/// counter drives the outer loop, so forged advice controls how much
/// work replay does. The inner loop keeps each outer iteration well
/// under the per-loop backstop while multiplying total steps — the
/// shape `LOOP_LIMIT` alone cannot contain and the fuel meter must.
fn spin_program() -> Program {
    spin_program_after(Vec::new())
}

/// [`spin_program`] with `prefix` run before its loop.
fn spin_program_after(prefix: Vec<Stmt>) -> Program {
    let mut b = ProgramBuilder::new();
    b.shared_var("last", Value::Int(0), true);
    let body = [
        prefix,
        vec![
            nondet_counter("n"),
            let_("i", lit(0i64)),
            while_(
                lt(local("i"), local("n")),
                vec![
                    let_("j", lit(0i64)),
                    while_(
                        lt(local("j"), lit(100i64)),
                        vec![let_("j", add(local("j"), lit(1i64)))],
                    ),
                    let_("i", add(local("i"), lit(1i64))),
                ],
            ),
            swrite("last", local("i")),
            respond(lit(0i64)),
        ],
    ];
    b.function("handle", body.concat());
    b.request_handler("handle");
    b.build().unwrap()
}

/// Two control-flow paths, so honest runs form two groups — the
/// fixture for group-width attacks (merging the tags makes one group
/// as wide as the whole trace).
fn branch_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.shared_var("seen", Value::Int(0), true);
    b.function(
        "handle",
        vec![
            swrite("seen", add(sread("seen"), lit(1i64))),
            iff(
                field(payload(), "b"),
                vec![respond(lit(1i64))],
                vec![respond(lit(2i64))],
            ),
        ],
    );
    b.request_handler("handle");
    b.build().unwrap()
}

fn honest(program: &Program, inputs: &[Value], seed: u64) -> (RunOutput, Advice) {
    let cfg = ServerConfig {
        concurrency: 2,
        policy: SchedPolicy::Random { seed },
        ..Default::default()
    };
    run_instrumented_server(program, inputs, &cfg, CollectorMode::Karousos).unwrap()
}

/// Audits `bytes` under `limits` at every point of the shared matrix
/// and returns the common outcome: a budget verdict (like any other
/// verdict) must be bit-identical across worker counts and
/// telemetry. For `ResourceExhausted` that includes the `(group, spent,
/// limit)` payload.
fn audit_under(
    program: &Program,
    out: &RunOutput,
    bytes: &[u8],
    limits: Limits,
    label: &str,
) -> Outcome {
    audit_points(
        program,
        &out.trace,
        bytes,
        IsolationLevel::Serializable,
        &matrix_with(&THREADS, limits),
        label,
    )
}

/// Applies `m` to honest advice and audits under `limits`, asserting
/// every matrix point rejects identically with the expected verdict.
fn assert_contained(
    program: &Program,
    out: &RunOutput,
    advice: &Advice,
    m: ExhaustMutator,
    limits: Limits,
) {
    let mutation = m
        .apply(advice, 7)
        .unwrap_or_else(|| panic!("{} found nothing to mutate", m.name()));
    let verdict = audit_under(program, out, &mutation.bytes, limits, m.name());
    match (&verdict, m.expected()) {
        (Err(RejectReason::ResourceExhausted { resource, .. }), Some(want)) => {
            assert_eq!(
                *resource,
                want,
                "{}: tripped {resource}, expected {want}",
                m.name()
            );
        }
        (Err(RejectReason::MalformedAdvice { .. }), None) => {}
        other => panic!(
            "{}: expected a contained rejection, got {:?} ({})",
            m.name(),
            other.0,
            mutation.description
        ),
    }
}

#[test]
fn loop_bomb_is_contained_by_fuel() {
    let program = spin_program();
    let (out, advice) = honest(&program, &vec![Value::Null; 6], 3);
    // Honest replay ACCEPTs under the default limits, and identically
    // — same statistics, same fuel bill — under budgets tight enough
    // to be a deployment's: a budget an honest run fits in is not
    // observable.
    let honest_bytes = encode_advice(&advice);
    let default = audit_under(&program, &out, &honest_bytes, Limits::default(), "honest");
    assert!(
        default.is_ok(),
        "honest spin advice must accept under default limits: {default:?}"
    );
    let tight = Limits {
        replay_fuel: 1 << 23,
        group_deadline_ms: 30_000,
        ..Limits::default()
    };
    assert_eq!(
        default,
        audit_under(
            &program,
            &out,
            &honest_bytes,
            tight,
            "honest, tight budgets"
        ),
        "tight budgets changed an honest outcome"
    );
    let limits = Limits {
        replay_fuel: 200_000,
        ..Limits::default()
    };
    assert_contained(&program, &out, &advice, ExhaustMutator::LoopBomb, limits);
    // The fuel payload must be exact, not merely matrix-identical: fuel
    // is counted a unit at a time on the source program, so the first
    // over-budget unit reports spent == limit + 1, whatever batch of
    // charges the VM was adding when it tripped.
    let mutation = ExhaustMutator::LoopBomb.apply(&advice, 7).unwrap();
    match audit_under(&program, &out, &mutation.bytes, limits, "loop bomb") {
        Err(RejectReason::ResourceExhausted {
            resource,
            spent,
            limit,
            ..
        }) => {
            assert_eq!(resource, karousos::verifier::ResourceKind::ReplayFuel);
            assert_eq!(limit, 200_000);
            assert_eq!(spent, 200_001, "fuel trip must report limit + 1");
        }
        other => panic!("expected fuel verdict, got {other:?}"),
    }
}

/// Loop-bomb advice in every one of 16 groups: the first group to run
/// out of fuel ends the audit, so replay bills one group's budget, not
/// one per group, and merges no group past it.
#[test]
fn loop_bomb_in_every_group_replays_one_group() {
    let bits = (0..3).map(|k| {
        let name = format!("b{k}");
        iff(
            field(payload(), &name),
            vec![let_(&name, lit(1i64))],
            vec![let_(&name, lit(0i64))],
        )
    });
    let program = spin_program_after(bits.collect());
    let inputs: Vec<Value> = (0..16)
        .map(|i: i64| Value::map([0, 1, 2].map(|k| (format!("b{k}"), Value::int((i >> k) & 1)))))
        .collect();
    let (out, advice) = honest(&program, &inputs, 37);
    let honest_bytes = encode_advice(&advice);
    let accepted = audit_under(&program, &out, &honest_bytes, Limits::default(), "honest");
    let groups = accepted.expect("honest advice must accept").reexec.groups;
    assert_eq!(groups, 16, "the fixture must form one group per request");

    let limit = 1 << 20;
    let limits = Limits {
        replay_fuel: limit,
        ..Limits::default()
    };
    let mutation = ExhaustMutator::LoopBomb.apply(&advice, 7).unwrap();
    match audit_under(
        &program,
        &out,
        &mutation.bytes,
        limits,
        "loop bomb, 16 groups",
    ) {
        Err(RejectReason::ResourceExhausted {
            resource,
            group,
            spent,
            ..
        }) => {
            assert_eq!(resource, karousos::verifier::ResourceKind::ReplayFuel);
            assert_eq!(group, Some(0), "the first group's verdict");
            assert_eq!(spent, limit + 1);
        }
        other => panic!("expected fuel verdict, got {other:?}"),
    }
    for point in matrix_with(&THREADS, limits).into_iter().filter(|p| p.obs) {
        let obs = obs::Obs::enabled();
        let verdict = audit_encoded_with_obs(
            &program,
            &out.trace,
            &mutation.bytes,
            IsolationLevel::Serializable,
            point.opts,
            &obs,
        );
        assert!(verdict.is_err(), "{point:?}");
        let metrics = obs.snapshot().metrics;
        assert_eq!(
            metrics.counter(obs::CounterId::ReplayFuelSpent),
            limit + 1,
            "{point:?}: replay billed more than the failing group"
        );
        assert_eq!(
            metrics.histogram_count(obs::HistogramId::GroupFuelSpent),
            1,
            "{point:?}: groups past the failing one were merged"
        );
    }
}

#[test]
fn loop_bomb_is_contained_by_deadline_when_fuel_is_unmetered() {
    let program = spin_program();
    let (out, advice) = honest(&program, &vec![Value::Null; 4], 5);
    let mutation = ExhaustMutator::LoopBomb.apply(&advice, 7).unwrap();
    // Fuel unmetered: only the wall clock can stop the spin. The
    // deadline verdict is machine-dependent in its `spent` field, so
    // (unlike fuel) it is asserted per point, not across the matrix.
    let limits = Limits {
        replay_fuel: u64::MAX,
        group_deadline_ms: 100,
        ..Limits::default()
    };
    for point in matrix_with(&THREADS, limits) {
        match audit_at(
            &program,
            &out.trace,
            &mutation.bytes,
            IsolationLevel::Serializable,
            point,
        ) {
            Err(RejectReason::ResourceExhausted { resource, .. }) => {
                assert_eq!(resource, karousos::verifier::ResourceKind::GroupDeadline);
            }
            other => panic!("expected deadline verdict at {point:?}, got {other:?}"),
        }
    }
}

/// Trips of [`fused_spin_program`]'s loop, half of `LOOP_LIMIT`.
const FUSED_TRIPS: i64 = 500_000;

/// A spin that is one cyclic integer run (`kem::bytecode`, "Operand
/// fusion"): each trip steps six registers' arithmetic and counts
/// itself, all of it in fused windows.
fn fused_spin_program() -> Program {
    let regs = ["a", "b", "c", "d", "e", "f"];
    let step = |r: &str| {
        let_(
            r,
            modulo(add(mul(local(r), lit(7i64)), lit(5i64)), lit(1009i64)),
        )
    };
    let mut trip: Vec<Stmt> = regs.iter().map(|r| step(r)).collect();
    trip.push(let_("i", add(local("i"), lit(1i64))));
    let mut body: Vec<Stmt> = (0i64..)
        .zip(["i"].iter().chain(&regs))
        .map(|(k, r)| let_(r, lit(k)))
        .collect();
    body.push(while_(lt(local("i"), lit(FUSED_TRIPS)), trip));
    body.push(respond(local("a")));
    let mut b = ProgramBuilder::new();
    b.function("handle", body);
    b.request_handler("handle");
    b.build().unwrap()
}

/// A fused run polls the group deadline as it goes, not only when it
/// leaves: with fuel unmetered, a deadline a twentieth of the spin's
/// time stops the replay long before the loop's whole bill is spent.
#[test]
fn fused_spin_is_contained_by_deadline_inside_the_run() {
    const DEADLINE_MS: u64 = 1;
    let program = fused_spin_program();
    let code = program.code();
    let text = kem::bytecode::disassemble(&code.funcs[0], &code.interner);
    assert_eq!(text.matches("run r").count(), 1, "one run:\n{text}");
    assert!(text.contains("cyclic"), "a cyclic run:\n{text}");
    let (out, advice) = honest(&program, &[Value::Null], 3);
    let bytes = encode_advice(&advice);
    // The verdict, the group's fuel spend and the audit's wall time.
    let audit = |group_deadline_ms| {
        let opts = AuditOptions {
            limits: Limits {
                replay_fuel: u64::MAX,
                group_deadline_ms,
                ..Limits::default()
            },
            ..AuditOptions::with_threads(1)
        };
        let obs = obs::Obs::enabled();
        let start = std::time::Instant::now();
        let verdict = audit_encoded_with_obs(
            &program,
            &out.trace,
            &bytes,
            IsolationLevel::Serializable,
            opts,
            &obs,
        );
        let took = start.elapsed();
        let groups = obs.snapshot().ledger.groups;
        (verdict, groups.iter().map(|g| g.fuel).sum::<u64>(), took)
    };
    let (verdict, bill, whole) = audit(u64::MAX);
    assert!(verdict.is_ok(), "honest spin rejected: {verdict:?}");
    assert!(
        whole >= std::time::Duration::from_millis(20 * DEADLINE_MS),
        "the spin took {whole:?}, under 20 deadlines"
    );
    let (verdict, spent, _) = audit(DEADLINE_MS);
    match verdict {
        Err(RejectReason::ResourceExhausted { resource, .. }) => {
            assert_eq!(resource, karousos::verifier::ResourceKind::GroupDeadline);
        }
        other => panic!("expected deadline verdict, got {other:?}"),
    }
    assert!(
        spent < bill / 4,
        "the deadline stopped the spin at {spent} of {bill} fuel"
    );
}

#[test]
fn deep_recursion_is_contained_by_the_nesting_guard() {
    let program = spin_program();
    let (out, advice) = honest(&program, &vec![Value::Null; 4], 11);
    assert_contained(
        &program,
        &out,
        &advice,
        ExhaustMutator::DeepRecursion,
        Limits::default(),
    );
}

#[test]
fn alloc_bomb_is_contained_by_the_node_budget() {
    let program = spin_program();
    let (out, advice) = honest(&program, &vec![Value::Null; 4], 13);
    let limits = Limits {
        decode_max_nodes: 8_192,
        ..Limits::default()
    };
    assert_contained(&program, &out, &advice, ExhaustMutator::AllocBomb, limits);
}

#[test]
fn dict_flood_is_contained_by_the_entry_budget() {
    let program = branch_program();
    let inputs: Vec<Value> = (0..8)
        .map(|i| Value::map([("b", Value::int(i % 2))]))
        .collect();
    let (out, advice) = honest(&program, &inputs, 17);
    let limits = Limits {
        dict_max_entries: 1_000,
        ..Limits::default()
    };
    assert_contained(&program, &out, &advice, ExhaustMutator::DictFlood, limits);
}

#[test]
fn edge_explosion_is_contained_by_the_graph_budget() {
    let program = spin_program();
    let (out, advice) = honest(&program, &vec![Value::Null; 4], 19);
    let limits = Limits {
        graph_max_nodes: 100_000,
        ..Limits::default()
    };
    assert_contained(
        &program,
        &out,
        &advice,
        ExhaustMutator::EdgeExplosion,
        limits,
    );
}

#[test]
fn oversized_multivalue_is_contained_by_the_width_cap() {
    let program = branch_program();
    let inputs: Vec<Value> = (0..8)
        .map(|i| Value::map([("b", Value::int(i % 2))]))
        .collect();
    let (out, advice) = honest(&program, &inputs, 23);
    // Honest groups are 4 wide; the merged group is 8 wide.
    let limits = Limits {
        max_group_width: 6,
        ..Limits::default()
    };
    assert_contained(
        &program,
        &out,
        &advice,
        ExhaustMutator::OversizedMultivalue,
        limits,
    );
}

/// Forty pool nodes describing 2^41 elements: the node budget charges
/// each reference what its container holds, so the default budget trips
/// while the pool is being read — in microseconds, not after a walk.
#[test]
fn pool_bomb_is_contained_by_the_node_budget() {
    let program = spin_program();
    let (out, advice) = honest(&program, &vec![Value::Null; 4], 31);
    assert_contained(
        &program,
        &out,
        &advice,
        ExhaustMutator::PoolBomb,
        Limits::default(),
    );
    let mutation = ExhaustMutator::PoolBomb.apply(&advice, 7).unwrap();
    assert!(
        mutation.bytes.len() < encode_advice(&advice).len() + 40 * 8,
        "the bomb is small on the wire"
    );
    let started = std::time::Instant::now();
    let verdict = karousos::audit_encoded(
        &program,
        &out.trace,
        &mutation.bytes,
        IsolationLevel::Serializable,
    );
    let took = started.elapsed();
    assert!(
        matches!(
            verdict,
            Err(RejectReason::ResourceExhausted {
                resource: karousos::verifier::ResourceKind::DecodeNodes,
                ..
            })
        ),
        "{verdict:?}"
    );
    assert!(took < std::time::Duration::from_millis(10), "{took:?}");
}

/// Advice that took an editor's route — bytes, decoded `Advice`,
/// canonical bytes again — is metered like the bytes it came from: the
/// same loop bomb, re-encoded before the audit.
#[test]
fn decoded_audit_path_is_fuel_metered_too() {
    let program = spin_program();
    let (out, advice) = honest(&program, &vec![Value::Null; 4], 29);
    let mutation = ExhaustMutator::LoopBomb.apply(&advice, 7).unwrap();
    let mutated = encode_advice(&karousos::decode_advice(&mutation.bytes).unwrap());
    let opts = AuditOptions {
        limits: Limits {
            replay_fuel: 200_000,
            ..Limits::default()
        },
        ..AuditOptions::with_threads(1)
    };
    match audit_encoded_with_obs(
        &program,
        &out.trace,
        &mutated,
        IsolationLevel::Serializable,
        opts,
        &obs::Obs::noop(),
    ) {
        Err(RejectReason::ResourceExhausted { resource, .. }) => {
            assert_eq!(resource, karousos::verifier::ResourceKind::ReplayFuel);
        }
        other => panic!("expected fuel verdict, got {other:?}"),
    }
}

/// One committed transaction of an honest stacks run, widened the way
/// an editor of the bytes would (view → `Advice` → bytes): `width`
/// more `PUT`s to distinct keys, every one of them a last modification
/// and listed in the write order, at operation numbers the inflated
/// opcount covers — so nothing stops the advice before isolation
/// verification meets the wide transaction.
fn widen_one_transaction(bytes: &[u8], width: u32) -> Vec<u8> {
    use karousos::advice::{TxLogEntry, TxOpContents, TxPos};
    use kem::TxOpKind;
    let mut advice = karousos::decode_advice(bytes).unwrap();
    let (tx, log) = advice
        .tx_logs
        .iter_mut()
        .find(|(_, log)| log.last().is_some_and(|e| e.optype == TxOpKind::Commit))
        .expect("a committed transaction");
    let commit = log.pop().unwrap();
    let opcount = advice
        .opcounts
        .get_mut(&(tx.rid, commit.hid.clone()))
        .unwrap();
    for i in 0..width {
        advice.write_order.push(TxPos {
            tx: tx.clone(),
            index: log.len() as u32,
        });
        log.push(TxLogEntry {
            hid: commit.hid.clone(),
            opnum: *opcount + 1 + i,
            optype: TxOpKind::Put,
            key: Some(format!("wide-{i}")),
            contents: TxOpContents::Put {
                value: Value::Int(0),
            },
        });
    }
    *opcount += width;
    log.push(commit);
    encode_advice(&advice)
}

/// The version-order check found a transaction's final `PUT` to a key
/// by rescanning its operations — `width²` string compares for the
/// advice above, under no deadline (preprocess has none). Isolation
/// verification now accepts the wide transaction in one pass, and the
/// audit reaches its verdict — replay's, since the program never
/// issued those writes — at every matrix point, at a width the
/// quadratic check would have spent this job's wall on.
#[test]
fn wide_transaction_is_contained_by_linear_isolation_verification() {
    let mut exp =
        workload::Experiment::paper_default(apps::App::Stacks, workload::Mix::WriteHeavy, 1, 0);
    exp.requests = 12;
    let program = apps::App::Stacks.program();
    let (out, advice) = run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        CollectorMode::Karousos,
    )
    .unwrap();
    let honest_bytes = encode_advice(&advice);
    for width in [2_000, 16_000] {
        let bytes = widen_one_transaction(&honest_bytes, width);
        // Preprocess — isolation verification included — passes, on a
        // history that has the wide transaction in it.
        let view = karousos::decode_advice_view(&bytes).unwrap();
        let mut interner = kem::ValueInterner::new();
        let advice_ref = karousos::AdviceRef::from_view(&view, &mut interner);
        let staged = karousos::verifier::preprocess_staged(
            &program,
            &out.trace,
            &advice_ref,
            exp.isolation,
            1,
        );
        let pre = staged
            .unwrap_or_else(|e| panic!("width {width}: preprocess rejected: {e}"))
            .pre;
        assert!(pre.isolation.state_ops > width as usize);
        assert_eq!(
            pre.isolation.write_order,
            advice.write_order.len() + width as usize
        );
        let verdict = audit_under(
            &program,
            &out,
            &bytes,
            Limits::default(),
            "wide transaction",
        );
        assert!(
            matches!(verdict, Err(RejectReason::StateOpMismatch { .. })),
            "width {width}: {verdict:?}"
        );
    }
}
