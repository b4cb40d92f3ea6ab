//! Allocation-regression guard for the verifier's group-replay hot path.
//!
//! A counting `#[global_allocator]` wraps the system allocator and
//! counts allocation *events* (alloc + realloc calls) while the
//! re-execution phase replays a uniform 64-request group. The budget
//! pinned here is the contract that slot-compiled frames and interned
//! symbols keep the hot loop allocation-free: if a change reintroduces
//! per-request `String`/`BTreeMap` traffic, this test fails CI.
//!
//! Allocation counts do not depend on timing, but they may depend on
//! the build profile: the standard library and the compiler's inlining
//! can allocate differently in debug and release (the MOTD
//! beyond-linear count once read 19 in release and 25 in debug). So
//! every pin must hold in both: in the debug `cargo test -q` of the
//! tier-1 check and in CI's release guard (`cargo test --release --test
//! alloc_regression`). A "measured" figure in a pin's message or
//! comment is a release reading — the profile EXPERIMENTS.md quotes —
//! unless the comment names the profile; where the two profiles
//! differed, the comment gives both. When the decode-phase pins last
//! moved, every count this file prints read the same in both profiles.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Mutex;

/// Wraps the system allocator, counting allocation events (calls to
/// `alloc`/`realloc`), the bytes they request and the bytes left
/// allocated on threads whose `COUNTING` flag is set.
struct CountingAlloc;

static ALLOC_EVENTS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);
/// Bytes allocated less bytes freed.
static ALLOC_LIVE: AtomicI64 = AtomicI64::new(0);

thread_local! {
    /// Per-thread opt-in: only the measuring thread counts, so what
    /// libtest's own threads allocate meanwhile (spawning the next
    /// test, capturing output) lands in nobody's window. Every pin
    /// audits at `threads = 1`; one that needed workers would set the
    /// flag inside the scope it spawns. `const`-initialised and without
    /// a destructor, so reading it from the allocator allocates nothing.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
            ALLOC_LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            ALLOC_LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOC_EVENTS.fetch_add(1, Ordering::Relaxed);
            ALLOC_BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
            let grown = new_size as i64 - layout.size() as i64;
            ALLOC_LIVE.fetch_add(grown, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Serializes the tests in this file: the counters are global, so two
/// `#[test]` fns measuring concurrently would add into each other's
/// totals.
static SERIAL: Mutex<()> = Mutex::new(());

/// Counts allocation events on the calling thread during `f`. Not
/// reentrant; callers hold `SERIAL` so no other thread is counting.
fn count_allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let (out, events, _bytes) = count_allocs_and_bytes(f);
    (out, events)
}

/// [`count_allocs`], also returning the bytes those events requested.
fn count_allocs_and_bytes<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let (out, events, bytes, _live) = count_allocs_bytes_and_live(f);
    (out, events, bytes)
}

/// [`count_allocs_and_bytes`], also returning the bytes `f` left
/// allocated: what it allocated less what it freed.
fn count_allocs_bytes_and_live<T>(f: impl FnOnce() -> T) -> (T, u64, u64, i64) {
    ALLOC_EVENTS.store(0, Ordering::SeqCst);
    ALLOC_BYTES.store(0, Ordering::SeqCst);
    ALLOC_LIVE.store(0, Ordering::SeqCst);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (
        out,
        ALLOC_EVENTS.load(Ordering::SeqCst),
        ALLOC_BYTES.load(Ordering::SeqCst),
        ALLOC_LIVE.load(Ordering::SeqCst),
    )
}

use kem::{dsl, ServerConfig, Value};

/// A handler-op-heavy program whose requests all take the same path:
/// locals, a non-loggable shared read/write, register / emit /
/// listenerCount / unregister, and a short loop. Every payload is
/// identical, so all `n` requests land in one re-execution group and
/// every multivalue stays uniform.
fn uniform_program() -> kem::Program {
    let mut b = kem::ProgramBuilder::new();
    b.shared_var("cfg", Value::int(7), false);
    b.function(
        "handle",
        vec![
            dsl::let_("x", dsl::field(dsl::payload(), "k")),
            dsl::let_("s", dsl::sread("cfg")),
            dsl::swrite("cfg", dsl::add(dsl::sread("cfg"), dsl::lit(0))),
            dsl::let_("y", dsl::add(dsl::local("x"), dsl::local("s"))),
            dsl::let_("i", dsl::lit(0)),
            dsl::while_(
                dsl::lt(dsl::local("i"), dsl::lit(8)),
                vec![
                    dsl::let_("acc", dsl::add(dsl::local("y"), dsl::local("i"))),
                    dsl::let_("i", dsl::add(dsl::local("i"), dsl::lit(1))),
                ],
            ),
            dsl::register("boom", "on_boom"),
            dsl::emit("boom", dsl::local("y")),
            dsl::listener_count("n", "boom"),
            dsl::unregister("boom", "on_boom"),
            dsl::respond(dsl::local("y")),
        ],
    );
    b.function(
        "on_boom",
        vec![dsl::let_("z", dsl::add(dsl::payload(), dsl::lit(1)))],
    );
    b.request_handler("handle");
    b.build().expect("uniform program builds")
}

/// One replay of `advice` as an audit reaches it — encoded, decoded as
/// a view, preprocessed, the trusted initialization installed — inside
/// the counting window: its statistics, allocation events and bytes.
fn counted_replay(
    program: &kem::Program,
    trace: &kem::Trace,
    advice: &karousos::Advice,
    isolation: kvstore::IsolationLevel,
) -> (karousos::ReexecStats, u64, u64) {
    let bytes = karousos::encode_advice(advice);
    let view = karousos::decode_advice_view(&bytes).expect("own encoding decodes");
    let advice = karousos::AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
    let pre = karousos::verifier::preprocess_staged(program, trace, &advice, isolation, 1)
        .expect("preprocess accepts honest advice")
        .pre;
    let mut vars = karousos::verifier::VarStates::new();
    karousos::verifier::init_vars(program, &mut vars);
    let (stats, events, bytes) = count_allocs_and_bytes(|| {
        karousos::verifier::ReExecutor::new(program, trace, &advice, &pre, &mut vars)
            .run_pipelined(1, || ())
            .map(|(stats, _)| stats)
    });
    (stats.expect("replay accepts honest advice"), events, bytes)
}

/// Replays a uniform group of `n` identical requests and returns
/// (allocation events during the replay phase, total replayed ops).
fn replay_allocs(n: usize) -> (u64, u64) {
    let program = uniform_program();
    let cfg = ServerConfig::default();
    let inputs: Vec<Value> = (0..n)
        .map(|_| Value::from_map([("k".to_string(), Value::int(5))].into()))
        .collect();
    let (out, advice) = karousos::run_instrumented_server(
        &program,
        &inputs,
        &cfg,
        karousos::CollectorMode::Karousos,
    )
    .expect("server run succeeds");

    let ops: u64 = advice.opcounts.values().map(|&c| c as u64).sum();
    assert!(ops > 0, "scenario must replay at least one op");

    let (stats, allocs, _) = counted_replay(&program, &out.trace, &advice, cfg.isolation);
    assert_eq!(stats.groups, 1, "identical payloads must form one group");
    (allocs, ops)
}

/// The per-request marginal cost of a uniform group stays ~zero:
/// growing the group 8x (56 extra requests, 224 extra replayed ops) may
/// only add the handful of events attributable to container growth.
#[test]
fn uniform_group_replay_allocation_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    // Warm-up run: let lazy one-time allocations (thread-local RNG
    // buffers, hash seeds) happen outside the measured window.
    let _ = replay_allocs(8);

    let (allocs_8, ops_8) = replay_allocs(8);
    let (allocs_64, ops_64) = replay_allocs(64);
    let per_op_8 = allocs_8 as f64 / ops_8 as f64;
    let per_op_64 = allocs_64 as f64 / ops_64 as f64;
    eprintln!("n=8:  {allocs_8} allocs / {ops_8} ops = {per_op_8:.3} allocs/op");
    eprintln!("n=64: {allocs_64} allocs / {ops_64} ops = {per_op_64:.3} allocs/op");
    // Measured: 30 and 36 (+6). The pin is that plus 5 %.
    assert!(
        allocs_64.saturating_sub(allocs_8) <= 7,
        "replay allocations scale with group size: \
         n=8 -> {allocs_8}, n=64 -> {allocs_64} (marginal budget 7; measured 6)"
    );
}

/// The VM's uniform-group replay, pinned: its frame buffers (locals,
/// opcount cache, operand stack, loop/iterator scratch) are pooled on
/// the executor and reused across groups, so the only allocations left
/// are the semantic ones. The count is deterministic; the bound is what
/// was measured plus 5 %, and fails loudly if per-request string or map
/// traffic comes back.
#[test]
fn bytecode_vm_uniform_replay_allocation_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _ = replay_allocs(8);

    let (vm, ops) = replay_allocs(64);
    eprintln!("n=64: {vm} allocs / {ops} ops");
    assert!(
        vm <= 37,
        "uniform-group replay exceeded the allocation budget: \
         {vm} allocs for {ops} ops (budget 37; measured 36)"
    );
}

/// Real-application replay budget: a stacks workload (the most
/// interpreter-dominated of the paper apps) replayed group by group.
/// Allocation counts are deterministic, so the pin is what was measured
/// plus 5 %, and guards against per-activation frame traffic coming
/// back.
#[test]
fn stacks_group_replay_allocation_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let mut exp = Experiment::paper_default(App::Stacks, Mix::RW_MIXES[1], 8, 11);
    exp.requests = 64;
    let program = App::Stacks.program();
    let (out, advice) = karousos::run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        karousos::CollectorMode::Karousos,
    )
    .expect("stacks run succeeds");
    let ops: u64 = advice.opcounts.values().map(|&c| c as u64).sum();
    // Warm-up, then measure.
    let _ = counted_replay(&program, &out.trace, &advice, exp.isolation);
    let (stats, allocs, _) = counted_replay(&program, &out.trace, &advice, exp.isolation);
    let per_op = allocs as f64 / ops as f64;
    eprintln!(
        "stacks n=64: {allocs} allocs ({per_op:.3}/op), fuel {}",
        stats.fuel_spent
    );
    // Most stacks replay allocations are semantic (persistent map/list
    // updates — see EXPERIMENTS.md): list pushes on >CHUNK lists copy
    // one leaf plus a short spine (a few small allocations, O(CHUNK)
    // copied bytes instead of O(n)), transaction continuation payloads
    // build single-leaf maps from interned keys, and bulk map builds move
    // their entry buffer straight into the leaf. `MultiValue::map` / `zip`
    // stay collapsed until the first divergent member (every tx
    // continuation reads `payload.ok`, per member in, one `Bool` out).
    // Measured: 1168, 2.856/op. 1206 (2.949/op) while a group's
    // variable state built ordered maps of its writes, 1302 (3.183/op)
    // while `MakeList` and `MakeMap` moved their operands into a vector
    // of their own, and with a two-block node (an `Arc` header over a
    // `Vec` of entries) 1770, 4.328/op. The pin is 1168 plus 5 %.
    assert!(
        allocs <= 1226,
        "stacks replay exceeded the allocation budget: {allocs} allocs, \
         {per_op:.3}/op (budget 1226; measured 1168, 2.856/op, 1770 with two blocks \
         per node)"
    );
}

/// Preprocess, the view decode and the whole `threads = 1` audit of
/// stacks read-heavy at 400 and 800 requests, wire bytes to verdict:
/// allocation events. Preprocess runs the requests in about four ranges
/// per thread, each with one set of buffers reused from request to
/// request, and the decode keeps every handler and transaction log of
/// a section in one array, so what either allocates grows with the
/// advice's entries and not by a buffer per request: the growth between
/// the sizes is pinned too, where one allocation per request put back
/// costs 400 events. The
/// machine-stable companion to the `stacks-read-heavy` timing in
/// `benchmark/`.
#[test]
fn stacks_read_heavy_audit_allocation_scaling() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let program = App::Stacks.program();
    let allocs = |requests: usize| {
        let mut exp = Experiment::paper_default(App::Stacks, Mix::ReadHeavy, 8, 11);
        exp.requests = requests;
        let (out, advice) = karousos::run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            karousos::CollectorMode::Karousos,
        )
        .expect("stacks run succeeds");
        let bytes = karousos::encode_advice(&advice);
        drop(advice);
        // Preprocess as the audit reaches it; its output is dropped
        // outside the window.
        let view = karousos::decode_advice_view(&bytes).expect("own encoding decodes");
        let advice = karousos::AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
        let preprocess = || {
            karousos::verifier::preprocess_staged(&program, &out.trace, &advice, exp.isolation, 1)
                .expect("preprocess accepts honest advice")
        };
        let _ = preprocess();
        let (_, preprocess) = count_allocs(preprocess);
        let decode = || karousos::decode_advice_view(&bytes).expect("own encoding decodes");
        let (_, decode) = count_allocs(decode);
        // `Auditor::default()`: one thread, a noop handle.
        let audit = || {
            karousos::Auditor::default()
                .audit(&program, &out.trace, &bytes, exp.isolation)
                .expect("honest advice is accepted")
        };
        let _ = audit();
        (preprocess, decode, count_allocs(audit).1)
    };
    let ((pre_400, decode_400, audit_400), (pre_800, decode_800, audit_800)) =
        (allocs(400), allocs(800));
    let growth = pre_800.saturating_sub(pre_400);
    let decode_growth = decode_800.saturating_sub(decode_400);
    eprintln!(
        "stacks read-heavy allocs: preprocess {pre_400} at 400 requests, {pre_800} at 800 \
         (+{growth}); decode {decode_400} and {decode_800} (+{decode_growth}); audit \
         {audit_400} and {audit_800}"
    );

    // Measured: preprocess 177 and 192 (+15), decode 78 and 108 (+30),
    // audit 3 884 and 7 512 in both profiles, with the handler and
    // transaction logs in one array per section; with a vector per log,
    // decode 866 and 1 696 (+830), audit 4 673 and 9 101. The pins are
    // these figures plus 5 %.
    // Before: preprocess 178 and 193 (+15), audit 4 673 and 9 101 in
    // both profiles, with `AdviceRef::from_view` borrowing the view's
    // sections; 5 083 and 9 911 while it copied them.
    // Before: preprocess 177 and 192 (+15), audit 5 082 and 9 910;
    // 5 201 and 10 166 while a group's variable state built ordered maps
    // of its writes, 5 209 and 10 175 while the advice's coordinates
    // held handler ids.
    // While a coordinate was found by hints with a handler-id search
    // behind them, which built a handler id per missed emit hint, and
    // `MakeList` / `MakeMap` moved their operands into a vector:
    // preprocess 645 and 1 127 (+482), audit 5 749 and 11 250. With two
    // blocks per persistent node, audit 7 791 and 15 838. With one shard
    // per request, each with its own edge, table and duplicate-check
    // buffers, a vector of handler ids per emit and a handler id built
    // per activated handler: preprocess 2 937 and 5 809 (+2 872), audit
    // 10 083 and 20 520. The pins are the measured figures plus 5 %.
    assert!(
        pre_400 <= 186,
        "stacks read-heavy preprocess exceeded its allocation budget at 400 \
         requests: {pre_400} events (budget 186; measured 177, 645 with a handler-id \
         search behind hints, 2937 with a shard per request)"
    );
    assert!(
        pre_800 <= 202,
        "stacks read-heavy preprocess exceeded its allocation budget at 800 \
         requests: {pre_800} events (budget 202; measured 192, 1127 with a handler-id \
         search behind hints, 5809 with a shard per request)"
    );
    assert!(
        growth <= 16,
        "stacks read-heavy preprocess allocates per request again: {pre_400} -> \
         {pre_800}, +{growth} events for 400 more requests (pin <= 16; measured \
         15, 482 with a handler-id search behind hints, 2872 with a shard per request)"
    );
    assert!(
        decode_400 <= 81 && decode_800 <= 113,
        "stacks read-heavy decode exceeded its allocation budget: {decode_400} and \
         {decode_800} events at 400 and 800 requests (budgets 81 and 113; measured 78 and \
         108, 866 and 1696 with a vector per log)"
    );
    assert!(
        decode_growth <= 31,
        "stacks read-heavy decode allocates per request again: {decode_400} -> \
         {decode_800}, +{decode_growth} events for 400 more requests (pin <= 31; \
         measured 30, 830 with a vector per handler and transaction log)"
    );
    assert!(
        audit_400 <= 4_078,
        "stacks read-heavy audit exceeded its allocation budget at 400 requests: \
         {audit_400} events (budget 4078; measured 3884, 4673 with a vector per log, \
         5083 with the advice's sections copied, 7791 with two blocks per node, 10083 \
         with a preprocess shard per request)"
    );
    assert!(
        audit_800 <= 7_887,
        "stacks read-heavy audit exceeded its allocation budget at 800 requests: \
         {audit_800} events (budget 7887; measured 7512, 9101 with a vector per log, \
         9911 with the advice's sections copied, 15838 with two blocks per node, 20520 \
         with a preprocess shard per request)"
    );
}

/// Bytes allocated by replay must grow no faster than the trace. Every
/// request is given its own control-flow tag (grouping is the server's
/// choice; splitting is always accepted), so groups grow with
/// requests: any per-group structure sized by the whole trace — the
/// coverage tables were once pre-sized to every activation and every
/// logged operation — then costs groups × requests, and doubling the
/// requests roughly quadruples the bytes. Byte counts, like event
/// counts, are deterministic.
#[test]
fn stacks_replay_bytes_scale_with_requests() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let replay_bytes = |requests: usize| {
        let mut exp = Experiment::paper_default(App::Stacks, Mix::RW_MIXES[0], 8, 11);
        exp.requests = requests;
        let program = App::Stacks.program();
        let (out, mut advice) = karousos::run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            karousos::CollectorMode::Karousos,
        )
        .expect("stacks run succeeds");
        for (tag, unique) in advice.tags.values_mut().zip(0..) {
            *tag = unique;
        }
        let (stats, _, bytes) = counted_replay(&program, &out.trace, &advice, exp.isolation);
        (bytes, stats.groups)
    };
    let _ = replay_bytes(50);
    let (bytes_n, groups_n) = replay_bytes(200);
    let (bytes_2n, groups_2n) = replay_bytes(400);
    let growth = bytes_2n as f64 / bytes_n as f64;
    eprintln!(
        "stacks replay, one group per request: {bytes_n} B / {groups_n} groups at 200 \
         requests, {bytes_2n} B / {groups_2n} groups at 400 ({growth:.2}x)"
    );
    assert_eq!((groups_n, groups_2n), (200, 400));
    // Measured: 673 004 B and 1 367 013 B (2.03x), the same before and
    // after the advice's coordinates became path ranks (replay holds no
    // coordinate key); the pin had stayed at 740 396 B and 1 508 517 B
    // (2.04x) + 5 %. With two blocks per persistent node, 889 800 B and
    // 1 813 037 B (2.04x). While every group
    // started from a clone of the post-initialization `VarStates`:
    // 1 307 856 B and 2 644 101 B (2.02x). A group's variable state is
    // now the shared initialization writes plus the writes the group
    // makes — no table over all nodes took the clone's place, or the
    // ratio would have moved towards 4.
    assert!(
        bytes_n <= 706_654,
        "replay of 200 single-request stacks groups requested {bytes_n} B (budget 706654; \
         measured 673004, 889800 with two blocks per node, 1307856 with a `VarStates` \
         clone per group)"
    );
    assert!(
        growth <= 2.5,
        "replay bytes grow faster than the trace: {bytes_n} B at 200 requests, \
         {bytes_2n} B at 400 ({growth:.2}x, bound 2.5x)"
    );
}

/// Decode-phase allocation budget: what keeping the advice borrowed
/// buys, pinned in absolute events. Two layers:
///
/// * the **view** decoder (`decode_advice_view`) builds the handler-id
///   table, each id once, the value pool, each shared node once, each
///   string the pool or a logged value names, once, and each logged
///   value, in the walk that validates it;
/// * `AdviceRef::from_view` borrows every section of the view, so it
///   adds nothing to the decode phase.
///
/// Uses a wiki-style workload because its advice carries the repeated
/// event names, handler ids, and string values the tables exist for.
#[test]
fn decode_phase_allocation_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let mut exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 4, 11);
    exp.requests = 64;
    let program = App::Wiki.program();
    let (_, advice) = karousos::run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        karousos::CollectorMode::Karousos,
    )
    .expect("wiki run succeeds");
    let bytes = karousos::encode_advice(&advice);
    let borrowed = || {
        let view = karousos::decode_advice_view(&bytes).expect("decodes");
        let mut interner = kem::ValueInterner::new();
        let advice = karousos::AdviceRef::from_view(&view, &mut interner);
        advice.var_log_entries()
    };

    // Warm-up (hash seeds, lazy statics).
    let _ = borrowed();

    let (_, view_allocs) = count_allocs(|| karousos::decode_advice_view(&bytes).map(|_| ()));
    let (_, borrowed_allocs) = count_allocs(borrowed);
    eprintln!(
        "decode allocs: view {view_allocs}, view + AdviceRef {borrowed_allocs}; {} wire bytes",
        bytes.len(),
    );

    // Measured in both profiles, which read the same, with each logged
    // value built in the walk that validates it: view 864, view +
    // AdviceRef 941 — `from_view` 77, the sections' vectors. The view
    // pin is measured + 5 %; the whole phase's pin stays. Before, the
    // view kept spans and `from_view` walked each again: view 335,
    // view + AdviceRef 944.
    // Measured with every handler-id reference read as its path's rank
    // (no handler id per reference or per entry): view 335, view +
    // AdviceRef 944; measured + 5 % would be above both pins, which
    // stay. With the handler-id table interned and ranked (one id per
    // distinct path, and the transaction positions resolved once):
    // view 336, view + AdviceRef 949. With one block per persistent
    // node and one scratch per reader: view 326, view + AdviceRef 933,
    // 21833 wire bytes, both pinned at measured + 5 %. With two blocks per node and a `Vec` per
    // inline container: view 345, view + AdviceRef 1476. The view decode copies every string a value names (it was
    // 257 when it copied only the pool's, and `from_view` the rest
    // through an interner of its own: 1520 together).
    // History: with the value pool alone (PR 18) view 301, view +
    // AdviceRef 1570, 48904 wire bytes. The owned section walk this file used
    // to compare against (deleted; `decode_advice` is now the view
    // decode plus `to_advice`) built the same advice in 15212 events,
    // and with span-backed flat values (PR 12, 63720 bytes) in 18584
    // against view 196 (1418 while the view still built a `ValueView`
    // tree per value) and view + AdviceRef 1546 — the pool moved a
    // hundred-odd builds from `from_view` into the view decode.
    // With `from_view` borrowing every section of the view: view 864,
    // view + AdviceRef 864 in both profiles; the whole phase's pin is
    // that plus 5 %. With the handler and transaction logs in one array
    // per section and the logged values in one table: view 747, view +
    // AdviceRef 747 in both profiles; both pins are that plus 5 %.
    assert!(
        view_allocs <= 784,
        "zero-copy view decode regressed: {view_allocs} allocs (pin: <= 784; measured 747, \
         864 with a vector per log, 335 while it built no logged value)"
    );
    let from_view = borrowed_allocs.saturating_sub(view_allocs);
    assert!(
        from_view == 0,
        "AdviceRef::from_view copies the view again: {from_view} allocs (pin: 0; \
         77 while it copied the sections, 609 while it built every logged value)"
    );
    assert!(
        borrowed_allocs <= 784,
        "borrowed decode phase regressed: {borrowed_allocs} allocs (pin: <= 784; \
         measured 747, 864 with a vector per log, 941 while `from_view` copied the sections)"
    );
}

/// What holding the advice costs: the bytes the view decode and
/// `AdviceRef::from_view` leave allocated, per variable-log entry, on
/// stacks read-heavy at 400 requests — the workload whose advice is
/// nearly all variable-log entries that log no value. The view holds
/// each entry once and `from_view` borrows it, so a second copy of the
/// logs shows here as tens of bytes an entry.
#[test]
fn held_advice_bytes_per_var_log_entry() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let mut exp = Experiment::paper_default(App::Stacks, Mix::ReadHeavy, 8, 11);
    exp.requests = 400;
    let (_, advice) = karousos::run_instrumented_server(
        &App::Stacks.program(),
        &exp.inputs(),
        &exp.server_config(),
        karousos::CollectorMode::Karousos,
    )
    .expect("stacks run succeeds");
    let bytes = karousos::encode_advice(&advice);
    let entries = advice.var_log_entries();
    drop(advice);
    let decode = || karousos::decode_advice_view(&bytes).expect("own encoding decodes");
    let _ = decode();
    let (view, _, _, view_live) = count_allocs_bytes_and_live(decode);
    let from_view = || karousos::AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
    let (advice, _, _, advice_live) = count_allocs_bytes_and_live(from_view);
    assert_eq!(advice.var_log_entries(), entries);
    // Measured: view 267 696 B, AdviceRef 0 B over 831 entries, 322.1 B
    // an entry, in both profiles. The parent tree's `from_view` copied
    // every section into vectors of its own, every variable-log entry
    // into a second entry type: AdviceRef 215 092 B more, 581.0 B an
    // entry. With the handler and transaction logs flat and each logged
    // value in one table, entries carrying its index (no 40-byte slot
    // whether or not they log one): view 235 240 B, 283.1 B an entry, in
    // both profiles. The pin is the measured figure plus 5 %.
    let per_entry = (view_live + advice_live) as f64 / entries as f64;
    eprintln!(
        "stacks read-heavy n=400: view {view_live} B + AdviceRef {advice_live} B held \
         over {entries} var-log entries ({per_entry:.1} B an entry), {} wire bytes",
        bytes.len()
    );
    assert!(
        per_entry <= 297.3,
        "the decoded advice holds more than one copy of its logs: {per_entry:.1} B a \
         var-log entry (pin 297.3; measured 283.1, 322.1 with a value slot in every entry \
         and a vector per log, 581.0 with the sections copied)"
    );
}

/// The paper's pathology (§6.2, EXPERIMENTS D3) end to end: MOTD
/// write-heavy logs the whole message map on every write, so the
/// advice holds ~n/2-entry maps n times over while only ~n *distinct*
/// entries exist. The wire format ships each distinct map *node* once
/// (the value pool, DESIGN.md §20) and the audit builds it once, so
/// allocation events grow with the nodes a write path-copies — the
/// tree's height, log₁₆ n, per write — and neither with the entries
/// logged (n²/2) nor with the nodes of every logged version (n²/32).
/// Pins the absolute count at 200 and 400 requests and the growth
/// across 100, 200 and 400 — the machine-stable companion to the
/// `motd-write-heavy` timing in `benchmark/`.
#[test]
fn motd_write_heavy_audit_allocation_scaling() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let program = App::Motd.program();
    let audit_allocs = |requests: usize| {
        let mut exp = Experiment::paper_default(App::Motd, Mix::WriteHeavy, 8, 11);
        exp.requests = requests;
        let (out, advice) = karousos::run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            karousos::CollectorMode::Karousos,
        )
        .expect("motd run succeeds");
        let bytes = karousos::encode_advice(&advice);
        drop(advice);
        // `Auditor::default()`: one thread, a noop handle.
        let audit = || {
            karousos::Auditor::default()
                .audit(&program, &out.trace, &bytes, exp.isolation)
                .expect("honest advice is accepted")
        };
        let _ = audit();
        count_allocs(audit).1
    };
    let (at_100, at_200, at_400) = (audit_allocs(100), audit_allocs(200), audit_allocs(400));
    let growth = at_400 as f64 / at_200 as f64;
    // What doubling the trace adds beyond doubling the count: whatever
    // grows with n cancels, what grows faster is left.
    let beyond_linear = at_400.saturating_sub(2 * at_200);
    // The same question asked so that fixed events cancel too: with
    // `a + b·n` events, 400 − 3·200 + 2·100 reads 0 for any `a` and `b`.
    let beyond_affine = at_400 as i64 - 3 * at_200 as i64 + 2 * at_100 as i64;
    eprintln!(
        "motd write-heavy audit allocs: {at_100} at 100 requests, {at_200} at 200, \
         {at_400} at 400 ({growth:.2}x, {beyond_linear} beyond linear, {beyond_affine} \
         beyond affine)"
    );

    // Measured: 6980 and 14887 (2.13x, 927 beyond linear). With flat
    // values, each distinct nested value memoized by its bytes and
    // every logged map's nodes rebuilt (PR 12 .. PR 17): 9338 and 24103
    // (2.58x, 5427 beyond linear); before that, 65031 and 237113. What
    // is left beyond linear is the third tree level: the history map
    // passes 256 entries between the two sizes, so a write past there
    // copies — and the pool ships, and the decoder builds — one more
    // node than a write before it. With per-member operands that
    // re-collapse no longer building a vector first: 6838 and 14716
    // (2.15x, 1040 beyond linear) — a saving per group and operation,
    // not per request (142 events at 200, 171 at 400), so the part
    // "beyond linear", which subtracts twice the smaller count, reads
    // 113 higher while both counts fell. With the merge's write table
    // (no ordered map per variable, no reader vector per write) and a
    // checked write keeping the logged map: 6156 and 13359 (2.17x,
    // 1047 beyond linear). With preprocess in ranges of requests, not
    // a shard and its buffers per request: 5769 and 12572 (2.18x, 1034
    // beyond linear). With one block per persistent node, built in
    // place: 3946 and 8318 (2.11x, 426 beyond linear). With the advice's
    // coordinates as path ranks: 3918 and 8257 (2.11x, 421 beyond
    // linear). With a logged map write checked against the edit of the
    // map it read, not built and dropped: 3217 and 6464 (2.01x, 30
    // beyond linear) — what was beyond linear was the copied path's
    // third level. With a group's writes in a worker's store, not in
    // ordered maps built per group: 3058 and 6135 (2.01x, 19 beyond
    // linear; a debug build reads 3051 and 6127, 25 beyond linear). The
    // pins are those plus 5 %, the larger reading's where they differ.
    // With each logged value built in the decode's one walk: 3056 and
    // 6133 (2.01x, 21 beyond linear) in both profiles; the parent tree
    // read 3059 and 6136 (18) in both on the same host. With
    // `AdviceRef::from_view` borrowing the view's sections instead of
    // copying them into vectors of its own: 3047 and 6124 (2.01x, 30
    // beyond linear) in both profiles. The figure beyond linear
    // subtracts twice the count at 200, so the nine events an audit no
    // longer makes, whatever its size, raise it by nine while both
    // counts fell by nine. The pins are the measured figures plus 5 %.
    assert!(
        at_200 <= 3_199,
        "motd write-heavy audit exceeded its allocation budget at 200 \
         requests: {at_200} events (budget 3199; measured 3047, 3918 with every \
         map write built)"
    );
    assert!(
        at_400 <= 6_430,
        "motd write-heavy audit exceeded its allocation budget at 400 \
         requests: {at_400} events (budget 6430; measured 6124, 8257 with every \
         map write built)"
    );
    assert!(
        beyond_linear <= 31,
        "motd write-heavy audit allocations grow like the number of logged \
         map nodes again: {at_200} -> {at_400}, {beyond_linear} events beyond \
         twice the count at 200 (pin <= 31; measured 30, 21 while `from_view` made \
         nine fixed allocations, 421 with every map write built)"
    );
    // The figure beyond affine moves with neither fixed nor per-request
    // events. Measured: 1658, 3047 and 6124 at 100, 200 and 400 requests
    // (299 beyond affine) in both profiles, and the same before the
    // ungrouped replay mode was deleted. The pin is the measured figure
    // plus 5 %.
    assert!(
        beyond_affine <= 314,
        "motd write-heavy audit allocations grow faster than affinely again: \
         {at_100} -> {at_200} -> {at_400}, {beyond_affine} events in 400 - 3*200 + \
         2*100 (pin <= 314; measured 299)"
    );
}

/// Isolation verification (§4.4) builds a fixed number of tables over
/// the alleged history — offsets, one flat operation array, counting
/// sort buckets, one edge vector — whatever its size: the same events
/// for 64 transactions as for 1 024, plus the key table's doublings.
/// It used to cost several events per operation (a `String` per `PUT` /
/// `GET`, a map node per transaction, a set node per edge). And an
/// audit without transaction logs — MOTD — pays nothing at all.
#[test]
fn isolation_verification_allocation_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let verify_allocs = |app: App, requests: usize| {
        let mut exp = Experiment::paper_default(app, Mix::WriteHeavy, 8, 11);
        exp.requests = requests;
        let program = app.program();
        let (out, advice) = karousos::run_instrumented_server(
            &program,
            &exp.inputs(),
            &exp.server_config(),
            karousos::CollectorMode::Karousos,
        )
        .expect("run succeeds");
        let bytes = karousos::encode_advice(&advice);
        let view = karousos::decode_advice_view(&bytes).expect("own encoding decodes");
        let advice = karousos::AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
        let pre =
            karousos::verifier::preprocess_staged(&program, &out.trace, &advice, exp.isolation, 1)
                .expect("preprocess accepts honest advice")
                .pre;
        let verify =
            || karousos::verifier::verify_isolation(&advice, &pre.committed, exp.isolation);
        let _ = verify();
        let (stats, allocs) = count_allocs(verify);
        let stats = stats.expect("honest history passes");
        assert_eq!(stats, pre.isolation);
        (stats, allocs)
    };
    let (none, motd) = verify_allocs(App::Motd, 100);
    assert_eq!(none, karousos::verifier::IsolationStats::default());
    assert_eq!(motd, 0, "an audit without transaction logs allocated");

    let (small, at_64) = verify_allocs(App::Stacks, 64);
    let (large, at_1024) = verify_allocs(App::Stacks, 1024);
    eprintln!("isolation verification allocs: {at_64} for {small:?}, {at_1024} for {large:?}");
    assert!(small.txns >= 64 && large.txns >= 1024);
    // The key table doubles from four buckets until it holds the
    // history's keys: at most one event per doubling.
    let doublings = |keys: usize| u64::from(keys.max(4).next_power_of_two().trailing_zeros());
    // Measured: 33 events for 4 keys and 38 for 76 — 31 tables, the
    // scratch buffer a stable sort of more than a few operations takes,
    // and the key table's 2 and 6 (2^k buckets hold 7/8 of that).
    assert!(
        at_64 <= 32 + doublings(small.keys),
        "isolation verification exceeded its allocation budget: {at_64} events for {small:?}"
    );
    assert!(
        at_1024 <= 32 + doublings(large.keys),
        "isolation verification allocations grow with the history: {at_1024} events for \
         {large:?}, {at_64} for {small:?}"
    );
}

/// The whole `threads = 1` audit of the paper's headline app at paper
/// scale (wiki, 600 requests), wire bytes to verdict: allocation events
/// and requested bytes. Variable state is where this audit's
/// bookkeeping was: the machine-stable companion to the `wiki-mix`
/// timing in `benchmark/`.
#[test]
fn wiki_audit_allocation_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 8, 11);
    let program = App::Wiki.program();
    let (out, advice) = karousos::run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        karousos::CollectorMode::Karousos,
    )
    .expect("wiki run succeeds");
    let bytes = karousos::encode_advice(&advice);
    drop(advice);
    // `Auditor::default()`: one thread, a noop handle.
    let audit = || {
        karousos::Auditor::default()
            .audit(&program, &out.trace, &bytes, exp.isolation)
            .expect("honest advice is accepted")
    };
    let _ = audit();
    let (_, events, requested) = count_allocs_and_bytes(audit);
    eprintln!(
        "wiki audit at {} requests, threads = 1: {events} allocation events, {requested} B requested",
        exp.requests
    );
    // Measured: 71 054 events, 20 148 277 B. With variable state keyed
    // by `OpRef` and every access applied twice (the parent of the
    // coordinate-indexed state, commit 540c495): 83 725 events,
    // 24 826 653 B — a cloned handler id per member per access, map
    // nodes keyed by coordinates, a reader list per observed write in
    // two states. With the value pool (this advice is 0.65 MB, not
    // 1.08): 69 609 events, 18 918 629 B. With `MultiValue::map` /
    // `zip` staying collapsed until the first divergent member (no
    // vector of `n` results for an operand that re-collapses): 67 865
    // events, 17 378 285 B. With isolation verification on a dense
    // history (600 transactions; it was a `String` per state operation,
    // a map node per transaction and a set node per DSG edge): 62 288
    // events, 16 960 373 B. With the merge's write table in place of two
    // ordered maps per variable and a reader vector per observed write,
    // and group streams reserved from the logged entries: 55 140 events,
    // 16 748 341 B. With preprocess in ranges of requests, not a shard
    // and its buffers per request: 50 486 events, 16 401 612 B. With
    // one block per persistent node, built in place, and one scratch
    // for every logged value read back: 34 562 events, 15 236 308 B.
    // With the advice's coordinates as 16-byte path-rank triples, not
    // 24-byte `OpRef`s (34 355 events, 15 158 300 B before): 34 346
    // events, 14 924 324 B. With a logged map write checked against the
    // edit of the map it read, not built and dropped: 28 962 events,
    // 13 465 596 B; the byte pin is that plus 5 %. With variable state
    // resolving on ids — a `head` over the activations in the variable
    // index, a group's writes in its worker's store, not in ordered maps
    // built per group: 27 355 events, 13 603 580 B. With
    // `AdviceRef::from_view` borrowing the view's sections, not copying
    // them: 26 739 events, 12 855 704 B in both profiles (27 352 events,
    // 13 866 364 B on the parent tree); the event pin is that plus 5 %.
    // With `G` computing its program and activation edges instead of
    // storing them: the same events, 11 531 532 B; the byte pin is that
    // plus 5 %. With the handler and transaction logs in one array per
    // section and the logged values in one table: 25 549 events,
    // 12 023 244 B in both profiles; the event pin is that plus 5 %, the
    // byte pin stays. The bytes rose: each array is sized by an
    // estimate and trimmed when the section ends, so its bytes are
    // requested about twice where a vector per log requested them once.
    assert!(
        events <= 26_826,
        "wiki audit exceeded its allocation budget: {events} events (budget 26826; \
         measured 25549, 26739 with a vector per log, 34346 with every map write built)"
    );
    assert!(
        requested <= 12_108_109,
        "wiki audit exceeded its byte budget: {requested} B requested (budget 12108109; \
         measured 11531532, 12855704 with program and activation edges stored)"
    );
}

/// The merge's write table is indexed by id, and the variable index's
/// `head` by activation, each id past the nodes one of its own; the
/// advice decides how many there are: every coordinate outside
/// `opcounts` that a variable log names gets an id. So an audit's
/// requested bytes, and the index's own — its `head` and the chain over
/// the entries — must grow linearly with what the advice names. Honest wiki advice gets one logged write's `prec`
/// pointed at a coordinate outside `opcounts` — rejected only once every
/// group has merged and the chains are walked — plus K, then 4K, entries
/// keyed at and pointing to further outside coordinates.
#[test]
fn write_table_grows_linearly_with_what_the_advice_names() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use karousos::{AccessType, RejectReason, VarLogEntry};
    use kem::{FunctionId, HandlerId, OpRef};
    use workload::{Experiment, Mix};

    let mut exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 8, 11);
    exp.requests = 60;
    let program = App::Wiki.program();
    let (out, honest) = karousos::run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        karousos::CollectorMode::Karousos,
    )
    .expect("wiki run succeeds");
    let (var, key) = honest
        .var_logs
        .iter()
        .find_map(|(var, log)| {
            let write = |e: &VarLogEntry| e.access == AccessType::Write && e.prec.is_some();
            let (key, _) = log.iter().find(|(_, e)| write(e))?;
            Some((*var, key.clone()))
        })
        .expect("wiki logs a write that names what it overwrote");
    // Coordinates under a handler no wiki run reports.
    let outside = |function: u32, opnum: u32| {
        let hid = HandlerId::child(&key.hid, FunctionId(function), 77);
        OpRef::new(key.rid, hid, opnum)
    };
    let audit = |names: u32| {
        let mut advice = honest.clone();
        let log = advice.var_logs.get_mut(&var).expect("the target's log");
        log.get_mut(&key).expect("the target entry").prec = Some(outside(4_000, 1));
        for opnum in 1..=names {
            let entry = VarLogEntry {
                access: AccessType::Write,
                value: Some(Value::int(0)),
                prec: Some(outside(4_002, opnum)),
            };
            log.insert(outside(4_001, opnum), entry);
        }
        let bytes = karousos::encode_advice(&advice);
        let audit = || {
            karousos::Auditor::default()
                .audit(&program, &out.trace, &bytes, exp.isolation)
                .expect_err("a write overwriting nothing that ran is rejected")
        };
        let _ = audit();
        let (failure, _, requested) = count_allocs_and_bytes(audit);
        let view = karousos::decode_advice_view(&bytes).expect("own encoding decodes");
        let advice = karousos::AdviceRef::from_view(&view, &mut kem::ValueInterner::new());
        let pre =
            karousos::verifier::preprocess_staged(&program, &out.trace, &advice, exp.isolation, 1)
                .expect("preprocess leaves the chains to the merge")
                .pre;
        let index = || karousos::verifier::VarIndex::build(pre.coords.clone(), &advice.var_logs);
        let (_, _, index_bytes) = count_allocs_and_bytes(index);
        (failure.reason, requested, index_bytes)
    };
    const K: u32 = 4_000;
    let (small, at_k, index_k) = audit(K);
    let (large, at_4k, index_4k) = audit(4 * K);
    let growth = at_4k as f64 / at_k as f64;
    let per_name = index_4k.saturating_sub(index_k) as f64 / f64::from(3 * K);
    eprintln!(
        "wiki audit naming {K} / {} outside coordinate pairs: {at_k} B / {at_4k} B requested \
         ({growth:.2}x); the index alone {index_k} B / {index_4k} B ({per_name:.1} B a pair)",
        4 * K
    );
    let uncovered = RejectReason::VarChainBroken {
        why: "re-executed write not covered by the write chain",
    };
    assert_eq!((&small, &large), (&uncovered, &uncovered));
    assert!(
        growth <= 4.5,
        "audit bytes grow faster than the ids the advice names: {at_k} B at {K} pairs, \
         {at_4k} B at {} ({growth:.2}x, bound 4.5x)",
        4 * K
    );
    // Measured: 105.9 B a named pair (447 376 B at K) — a slot of
    // `head` for the keyed outside id, an entry of the chain, of the key
    // ids and of the `prec` column, and two coordinates in the ordered
    // map of outside ids, with the doublings' copies. 113.9 B (478 512 B
    // at K) with a sorted `(id, position)` table per log. The pin is the
    // measured figure plus 5 %.
    assert!(
        per_name <= 111.2,
        "the variable index grows faster than the ids the advice names: {index_k} B at {K} \
         pairs, {index_4k} B at {} ({per_name:.1} B a pair; pin 111.2, measured 105.9)",
        4 * K
    );
}

/// `MultiValue::map` / `zip` over an expanded operand whose results
/// agree — `payload.ok` on every tx continuation, a per-member id
/// compared with a constant — stay collapsed from the first member on:
/// no vector of `n` results built to find out they were all equal.
#[test]
fn expanded_in_collapsed_out_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use karousos::MultiValue;
    let per = MultiValue::Per((0..64).map(Value::int).collect());
    let limit = MultiValue::uniform(Value::int(64));
    let small = |x: &Value, y: &Value| Ok::<_, ()>(Value::Bool(x.as_int() < y.as_int()));
    let (out, allocs) = count_allocs(|| {
        (
            per.map(|v| Ok::<_, ()>(Value::Bool(v.as_int().is_some()))),
            per.zip(&limit, 64, small),
            limit.zip(&per, 64, |y, x| small(x, y)),
        )
    });
    let yes = Ok(MultiValue::uniform(Value::Bool(true)));
    assert_eq!(out, (yes.clone(), yes.clone(), yes));
    assert_eq!(allocs, 0, "a re-collapsing operand allocated");
}

/// A handler-log-heavy variant of [`uniform_program`]: five
/// register/count/unregister rounds per request (plus one emit), so the
/// advice is dominated by handler-log entries — the section the audit
/// keeps as wire-backed slices, where an owned `Advice` holds a
/// `String`-carrying `HandlerLogEntry` per entry.
fn handler_heavy_program() -> kem::Program {
    let mut b = kem::ProgramBuilder::new();
    b.shared_var("cfg", Value::int(7), false);
    let mut body = vec![
        dsl::let_("x", dsl::field(dsl::payload(), "k")),
        dsl::let_("s", dsl::sread("cfg")),
        dsl::swrite("cfg", dsl::add(dsl::sread("cfg"), dsl::lit(0))),
        dsl::let_("y", dsl::add(dsl::local("x"), dsl::local("s"))),
        dsl::register("boom", "on_boom"),
        dsl::emit("boom", dsl::local("y")),
        dsl::listener_count("n", "boom"),
        dsl::unregister("boom", "on_boom"),
    ];
    for event in ["tick", "tock", "chime", "bell"] {
        body.push(dsl::register(event, "on_boom"));
        body.push(dsl::listener_count("n", event));
        body.push(dsl::unregister(event, "on_boom"));
    }
    body.push(dsl::respond(dsl::local("y")));
    b.function("handle", body);
    b.function(
        "on_boom",
        vec![dsl::let_("z", dsl::add(dsl::payload(), dsl::lit(1)))],
    );
    b.request_handler("handle");
    b.build().expect("handler-heavy program builds")
}

/// End-to-end audit allocation budget on handler-log-heavy advice at
/// 600 requests, wire bytes to verdict (view decode +
/// `AdviceRef::from_view` + preprocess + replay + postprocess): the
/// only copies the audit makes are the values replay actually retains,
/// so materializing an owned `Advice` on the way in — a `String` and a
/// map node per entry — would show here at once.
#[test]
fn end_to_end_borrowed_audit_allocation_budget() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let n = 600usize;
    let program = handler_heavy_program();
    let cfg = ServerConfig::default();
    let inputs: Vec<Value> = (0..n)
        .map(|_| Value::from_map([("k".to_string(), Value::int(5))].into()))
        .collect();
    let (out, advice) = karousos::run_instrumented_server(
        &program,
        &inputs,
        &cfg,
        karousos::CollectorMode::Karousos,
    )
    .expect("server run succeeds");
    let bytes = karousos::encode_advice(&advice);
    drop(advice);
    let audit = || {
        karousos::Auditor::default()
            .audit(&program, &out.trace, &bytes, cfg.isolation)
            .expect("audit accepts honest advice")
    };

    let _ = audit();
    let (_, allocs) = count_allocs(audit);
    eprintln!("end-to-end audit allocs at {n} requests: {allocs}");

    // Measured: 231 in both profiles, with each section's handler logs
    // in one array; pinned at measured + 5 %. 830 with a `Vec` per
    // request's handler log. 834
    // while `AdviceRef::from_view` copied the advice's sections, 835
    // while the advice's
    // coordinates held handler ids, 926 while coordinates
    // were found by hints with a handler-id search behind them. 6212
    // with a preprocess
    // shard and its buffers per request, a vector of handler ids per
    // emit and a handler id built per activated handler. 6209 before the merge's
    // write table (its reader index is two vectors even when no
    // variable is loggable) and the coordinates' activation-start index;
    // 6210 before the string and handler-id tables. History: at
    // introduction 9334, against 43421 for an audit that first decoded
    // an owned `Advice` with the owned section walk and 20630 for one
    // that converted the view — both routes are gone from the verifier
    // (every audit starts at the bytes); the gap was the per-entry
    // String/BTreeMap traffic of materializing `Advice`.
    assert!(
        allocs <= 242,
        "handler-heavy audit exceeded its allocation budget: {allocs} events (budget 242; \
         measured 231, 830 with a vector per handler log, 6212 with a preprocess shard per \
         request)"
    );
}

/// Resource governance costs no allocation: the fuel and deadline meter
/// is two counters and an `Instant` charged inline, and every volume
/// gate is a sum over what is already decoded. So an honest audit under
/// the default budgets allocates no more than with every budget off.
#[test]
fn metering_is_allocation_free() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let mut exp = Experiment::paper_default(App::Wiki, Mix::Wiki, 8, 11);
    exp.requests = 120;
    let program = App::Wiki.program();
    let (out, advice) = karousos::run_instrumented_server(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        karousos::CollectorMode::Karousos,
    )
    .expect("wiki run succeeds");
    let bytes = karousos::encode_advice(&advice);
    drop(advice);
    // One thread: worker scheduling perturbs counts by a handful of
    // allocations, the inline path is deterministic.
    let audit_allocs = |limits: karousos::Limits| {
        let auditor = karousos::Auditor {
            limits,
            ..Default::default()
        };
        let audit = || {
            auditor
                .audit(&program, &out.trace, &bytes, exp.isolation)
                .expect("honest advice is accepted")
        };
        let _ = audit();
        count_allocs(audit).1
    };
    let metered = audit_allocs(karousos::Limits::default());
    let unmetered = audit_allocs(karousos::Limits::unlimited());
    assert!(
        metered <= unmetered,
        "metering allocates: {metered} events under the default limits vs \
         {unmetered} with every budget off"
    );
}

/// One heap block per persistent node built (DESIGN.md §12): a map leaf
/// is one `Arc<[_]>`, collected in place from the old leaf. A
/// path-copying `insert` (of a new key, and over an old one) and a
/// `remove` on a one-leaf map each allocate the new leaf and nothing
/// else, and so does a `push` onto a one-leaf list.
/// The benchmark audits advice files through `karousos`'s compatibility
/// forwarder, `audit_source_with_obs` over `AdviceSource::open`. It must
/// cost what `Auditor::audit` costs on the same bytes, event for event,
/// or the benchmark measures something the verifier does not do.
#[test]
fn benchmark_forwarder_allocates_as_the_audit() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use apps::App;
    use workload::{Experiment, Mix};

    let mut exp = Experiment::paper_default(App::Stacks, Mix::ReadHeavy, 8, 11);
    exp.requests = 400;
    let program = App::Stacks.program();
    let (out, bytes) = karousos::run_instrumented_server_encoded(
        &program,
        &exp.inputs(),
        &exp.server_config(),
        karousos::CollectorMode::Karousos,
    )
    .expect("stacks run succeeds");
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("forwarder.advice");
    std::fs::write(&path, &bytes).expect("scratch advice file is writable");
    let source = karousos::AdviceSource::open(&path, false).expect("advice file opens");
    let audit = || {
        karousos::Auditor::default()
            .audit(&program, &out.trace, source.bytes(), exp.isolation)
            .expect("honest advice is accepted")
    };
    let forwarded = || {
        let (opts, noop) = (karousos::AuditOptions::default(), obs::Obs::noop());
        karousos::audit_source_with_obs(&program, &out.trace, &source, exp.isolation, opts, &noop)
            .expect("honest advice is accepted")
    };
    let _ = audit();
    let (direct, forwarded) = (count_allocs(audit).1, count_allocs(forwarded).1);
    eprintln!("stacks read-heavy audit allocs: {direct} direct, {forwarded} forwarded");
    assert_eq!(forwarded, direct, "the forwarder allocates differently");
}

#[test]
fn path_copies_allocate_one_block_per_node() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use kem::pvalue::{PList, PMap, CHUNK};
    use std::sync::Arc;

    let keys: Vec<Arc<str>> = (0..CHUNK).map(|i| Arc::from(format!("k{i:02}"))).collect();
    let map = PMap::from_pairs(keys[1..].iter().map(|k| (Arc::clone(k), Value::int(1))));
    let (grown, added) = count_allocs(|| map.insert(Arc::clone(&keys[0]), Value::int(2)));
    let (_, replaced) = count_allocs(|| map.insert(Arc::clone(&keys[7]), Value::int(3)));
    let (shrunk, removed) = count_allocs(|| grown.remove("k07"));
    assert_eq!(grown.len(), CHUNK, "still one leaf");
    assert_eq!(shrunk.len(), CHUNK - 1);
    assert_eq!(
        [added, replaced, removed],
        [1; 3],
        "a one-leaf map's insert (new key, old key) and remove: one block each"
    );
    let list = PList::from_exact(vec![Value::Null; CHUNK - 1]);
    let (pushed, events) = count_allocs(|| list.push(Value::int(1)));
    assert_eq!((pushed.len(), events), (CHUNK, 1), "a one-leaf list's push");
}

/// Replay's simulate-and-check of a map write compares the logged map
/// with the edit of the base it read, without building the edit: no
/// allocation whatever the answer — an honest version, one whose insert
/// split a leaf or the root, a forged value, a re-cut copy — where
/// building it would path-copy a block per level.
#[test]
fn checking_a_map_edit_allocates_nothing() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use kem::pvalue::PMap;
    use std::sync::Arc;

    let key = |i: u64| -> Arc<str> { Arc::from(format!("day-{:04}", i.wrapping_mul(7919) % 1000)) };
    let mut base = PMap::new();
    let mut events = 0;
    let mut checks = 0;
    for i in 0..600 {
        let (k, v) = (key(i), Value::int(i as i64));
        let next = base.insert(Arc::clone(&k), v.clone());
        let forged = next.insert(key(i / 2), Value::Null);
        let recut = PMap::from_pairs(next.iter().map(|(k, v)| (Arc::clone(k), v.clone())));
        let gone = next.remove(&k);
        let (answers, n) = count_allocs(|| {
            [
                next.eq_inserted(&base, &k, &v),
                recut.eq_inserted(&base, &k, &v),
                forged.eq_inserted(&base, &k, &v),
                gone.eq_removed(&next, &k),
                base.eq_removed(&next, &k),
            ]
        });
        assert_eq!(answers[..3], [true, true, forged == next], "insert {i}");
        assert_eq!(answers[3..], [true, base == gone], "remove {i}");
        events += n;
        checks += answers.len();
        base = next;
    }
    eprintln!("{checks} map edit checks: {events} allocation events");
    assert_eq!(events, 0, "checking a map edit allocated");
}

/// A handler that builds a map literal of `keys` entries from a value
/// that differs per request, listed in descending key order, or (with
/// `keys` 0) the same handler without it.
fn map_literal_program(keys: usize) -> kem::Program {
    let mut b = kem::ProgramBuilder::new();
    let names: Vec<String> = (0..keys).rev().map(|i| format!("k{i:02}")).collect();
    let mut body = vec![dsl::let_("x", dsl::field(dsl::payload(), "k"))];
    if keys > 0 {
        let pairs = names
            .iter()
            .map(|k| (k.as_str(), dsl::local("x")))
            .collect();
        body.push(dsl::let_("m", dsl::mapv(pairs)));
    }
    body.push(dsl::respond(dsl::local("x")));
    b.function("handle", body);
    b.request_handler("handle");
    b.build().expect("map literal program builds")
}

/// Replays `program` over `inputs` as one group: allocation events in
/// the replay.
fn group_replay_allocs(program: &kem::Program, inputs: &[Value]) -> u64 {
    let cfg = ServerConfig::default();
    let (out, advice) =
        karousos::run_instrumented_server(program, inputs, &cfg, karousos::CollectorMode::Karousos)
            .expect("server run succeeds");
    let (stats, allocs, _) = counted_replay(program, &out.trace, &advice, cfg.isolation);
    assert_eq!(stats.groups, 1, "one control flow, one group");
    allocs
}

/// Replays `n` requests of `program`, each with its own payload, as one
/// group: allocation events in the replay.
fn expanded_replay_allocs(program: &kem::Program, n: usize) -> u64 {
    let inputs: Vec<Value> = (0..n)
        .map(|i| Value::from_map([("k".to_string(), Value::int(i as i64))].into()))
        .collect();
    group_replay_allocs(program, &inputs)
}

/// `MakeMap` over an expanded operand builds each member's map as one
/// block: its constant keys are ordered once, when the op is compiled,
/// and each map is collected in that order straight into its leaf —
/// no per-member `Vec` and no per-member sort. So with the map literal,
/// 56 more members cost exactly 56 more allocations than without it,
/// up to a leaf's [`kem::pvalue::CHUNK`] keys.
#[test]
fn make_map_allocates_one_block_per_expanded_member() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let plain = map_literal_program(0);
    let _ = expanded_replay_allocs(&plain, 8);
    for keys in [1, 5, kem::pvalue::CHUNK] {
        let program = map_literal_program(keys);
        let with = expanded_replay_allocs(&program, 64) - expanded_replay_allocs(&program, 8);
        let without = expanded_replay_allocs(&plain, 64) - expanded_replay_allocs(&plain, 8);
        assert_eq!(
            with - without,
            56,
            "{keys}-key map literal: {with} more events for 56 more members, {without} without it"
        );
    }
}

/// `MakeMap` over uniform operands — every member sent the same payload
/// — builds the group's one map once: exactly its one leaf, whatever
/// the group's size. The operands are read where they lie on the
/// stack, not moved into a vector of their own first.
#[test]
fn make_map_over_uniform_operands_allocates_one_leaf() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let same = |n: usize| vec![Value::from_map([("k".to_string(), Value::int(5))].into()); n];
    let plain = map_literal_program(0);
    let _ = group_replay_allocs(&plain, &same(8));
    for keys in [1, 5, kem::pvalue::CHUNK] {
        let program = map_literal_program(keys);
        for n in [1, 8] {
            let with = group_replay_allocs(&program, &same(n));
            let without = group_replay_allocs(&plain, &same(n));
            assert_eq!(
                with - without,
                1,
                "{keys}-key map literal over {n} uniform members: {with} events, {without} without it"
            );
        }
    }
}

/// The advice decoder builds an inline map from its one scratch buffer:
/// the entries go on the scratch and come off it into the leaf, one
/// allocation, whatever their wire order (later duplicates win).
/// Counted per map through a view decode: advice that logs twice the
/// maps costs one allocation event more per map, the strings, the
/// scratch and the sections being sized by the first.
#[test]
fn decoding_an_inline_map_allocates_one_block() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    use karousos::wire::{INT, MAP};

    // Advice whose nondeterminism log holds `n` maps over a 16-string
    // table, each written with its keys in `order`; one handler id for
    // the records' coordinates, every other section empty.
    let advice = |order: &[u8], n: u8| {
        let mut bytes = vec![0, 16];
        for i in 0..16 {
            let key = format!("k{i:02}");
            bytes.push(key.len() as u8);
            bytes.extend_from_slice(key.as_bytes());
        }
        bytes.extend_from_slice(&[1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, n]);
        for rid in 0..n {
            bytes.extend_from_slice(&[rid, 0, 1, MAP, order.len() as u8]);
            for &id in order {
                bytes.extend_from_slice(&[id, INT, 2 * id]);
            }
        }
        bytes
    };
    for order in [
        (0..16).collect::<Vec<u8>>(),
        (0..16).rev().chain([3]).collect(),
    ] {
        let events = |n: u8| {
            let bytes = advice(&order, n);
            let (view, events) =
                count_allocs(|| karousos::decode_advice_view(&bytes).expect("decodes"));
            for (_, map) in &view.nondet {
                assert_eq!(map.value().as_map().map(|m| m.len()), Some(16));
            }
            events
        };
        let (four, eight) = (events(4), events(8));
        assert_eq!(
            eight - four,
            4,
            "wire order {order:?}: {four} allocation events for 4 maps, {eight} for 8"
        );
    }
}
