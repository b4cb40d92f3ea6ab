//! `harness profile`: a frame-pointer sampling profiler for one
//! workload, built on nothing but the C library the binary already
//! links.
//!
//! `setitimer(ITIMER_PROF)` delivers `SIGPROF` at [`HZ`] per second of
//! CPU time. The handler copies the interrupted program counter and the
//! return addresses of the frame-pointer chain into a buffer allocated
//! before the timer is armed: it allocates nothing, takes no lock and
//! reads only the live stack between the interrupted stack pointer and
//! the top of the main thread's stack. Symbols are resolved after
//! sampling from `nm -n --demangle` of the running binary and its load
//! base in `/proc/self/maps`; every frame outside the binary (the C
//! library, the vDSO) lands in one `[libc]` bucket.
//!
//! Frames compiled without frame pointers end the walk early, so
//! inclusive shares are only whole for a build with
//! `RUSTFLAGS="-C force-frame-pointers=yes"`; self shares are exact
//! either way.

use apps::App;

use crate::Opts;

/// Samples per second of CPU time.
const HZ: usize = 500;
/// Runs before the timer is armed.
const WARMUPS: usize = 20;

/// Samples `app`'s standing-benchmark mix at `o.requests` and `o.seed`
/// for `o.seconds`, auditing or (`o.server`) serving it, and prints the
/// profile, `o.top` rows a table; exits 1 when no sample was taken.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub fn run(app: App, o: &Opts) {
    use std::time::{Duration, Instant};

    let mix = match app {
        App::Motd => workload::Mix::WriteHeavy,
        App::Stacks => workload::Mix::ReadHeavy,
        App::Wiki => workload::Mix::Wiki,
    };
    let p = bench::prepare(app, mix, o.requests, 8, o.seed);
    let (inputs, cfg) = (p.exp.inputs(), p.exp.server_config());
    let once = || {
        if o.server {
            let run = karousos::run_instrumented_server_encoded(
                &p.program,
                &inputs,
                &cfg,
                karousos::CollectorMode::Karousos,
            );
            std::hint::black_box(run.expect("the app runs"));
        } else {
            let report = karousos::Auditor::default().audit(
                &p.program,
                &p.trace,
                &p.karousos_bytes,
                p.exp.isolation,
            );
            std::hint::black_box(report.expect("honest advice is accepted"));
        }
    };
    for _ in 0..WARMUPS {
        once();
    }
    let budget = Duration::from_secs(o.seconds);
    let sampler = sampler::Sampler::start(o.seconds as usize * HZ * 2 + 1024);
    let (start, mut runs) = (Instant::now(), 0usize);
    while start.elapsed() < budget {
        once();
        runs += 1;
    }
    let wall = start.elapsed();
    let (stacks, dropped) = sampler.stop();
    let what = if o.server {
        "instrumented server"
    } else {
        "one-thread audit"
    };
    println!(
        "== profile: {} {what}, {} requests, seed {}: {runs} runs in {:.1} s, {} samples \
         ({dropped} dropped) ==",
        app.name(),
        o.requests,
        o.seed,
        wall.as_secs_f64(),
        stacks.len(),
    );
    if stacks.is_empty() {
        eprintln!("harness profile: no samples were taken");
        std::process::exit(1);
    }
    let symbols = symbols::Symbols::load().unwrap_or_else(|e| {
        eprintln!("harness profile: cannot symbolize: {e}");
        std::process::exit(1);
    });
    let (inclusive, own) = tally(&stacks, &symbols);
    let table = |label: &str, rows: &Counts, samples: usize| {
        print_table(label, rows, samples, o.top);
    };
    table("inclusive", &inclusive, stacks.len());
    table("self", &own, stacks.len());
    if let Some(symbol) = &o.under {
        let (held, own, callees, callers) = under(&stacks, &symbols, symbol);
        println!(
            "\n== under `{symbol}`: {held} samples ({:.1} % of all) ==",
            100.0 * held as f64 / stacks.len() as f64
        );
        table("self, of these samples", &own, held);
        table(
            "direct callees (`(self)`: the function itself)",
            &callees,
            held,
        );
        table(
            "direct callers (`(walk ended)`: no frame above it)",
            &callers,
            held,
        );
    }
}

/// Of the samples with a function whose name contains `symbol` on the
/// stack: how many there are, their self frames, what the innermost
/// such frame was calling — `(self)` when it was the interrupted one —
/// and the frame that called it.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn under(
    stacks: &[Vec<usize>],
    symbols: &symbols::Symbols,
    symbol: &str,
) -> (usize, Counts, Counts, Counts) {
    use std::collections::HashMap;

    let mut own: HashMap<&str, usize> = HashMap::new();
    let mut callees: HashMap<&str, usize> = HashMap::new();
    let mut callers: HashMap<&str, usize> = HashMap::new();
    let mut held = 0;
    for stack in stacks {
        let names: Vec<&str> = (stack.iter().enumerate())
            .map(|(depth, &pc)| symbols.name(if depth == 0 { pc } else { pc.wrapping_sub(1) }))
            .collect();
        let Some(at) = names.iter().position(|name| name.contains(symbol)) else {
            continue;
        };
        held += 1;
        *own.entry(names[0]).or_default() += 1;
        let callee = if at == 0 { "(self)" } else { names[at - 1] };
        *callees.entry(callee).or_default() += 1;
        let caller = names.get(at + 1).copied().unwrap_or("(walk ended)");
        *callers.entry(caller).or_default() += 1;
    }
    (held, sorted(own), sorted(callees), sorted(callers))
}

/// Elsewhere the sampler has no way to read the interrupted registers.
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub fn run(_app: App, _o: &Opts) {
    eprintln!("harness profile: the sampler reads x86_64 Linux signal frames; not available here");
    std::process::exit(2);
}

/// Sample counts by symbol, highest first.
type Counts = Vec<(String, usize)>;

/// Per-symbol sample counts, inclusive (a symbol anywhere on the
/// stack, once per sample) and self (the interrupted frame).
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn tally(stacks: &[Vec<usize>], symbols: &symbols::Symbols) -> (Counts, Counts) {
    use std::collections::{HashMap, HashSet};

    let mut inclusive: HashMap<&str, usize> = HashMap::new();
    let mut own: HashMap<&str, usize> = HashMap::new();
    let mut seen = HashSet::new();
    for stack in stacks {
        seen.clear();
        for (depth, &pc) in stack.iter().enumerate() {
            // A return address points past its call: look up the call.
            let name = symbols.name(if depth == 0 { pc } else { pc.wrapping_sub(1) });
            if depth == 0 {
                *own.entry(name).or_default() += 1;
            }
            if seen.insert(name) {
                *inclusive.entry(name).or_default() += 1;
            }
        }
    }
    (sorted(inclusive), sorted(own))
}

/// Rows highest count first, ties by name.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn sorted(m: std::collections::HashMap<&str, usize>) -> Counts {
    let mut rows: Counts = m.into_iter().map(|(k, v)| (k.to_string(), v)).collect();
    rows.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    rows
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
fn print_table(label: &str, rows: &Counts, samples: usize, top: usize) {
    println!("\n  top {top} {label}");
    let samples = samples.max(1);
    for (name, count) in rows.iter().take(top) {
        let pct = 100.0 * *count as f64 / samples as f64;
        let name: String = name.chars().take(120).collect();
        println!("    {pct:>6.1} % {count:>7}  {name}");
    }
}

/// The `SIGPROF` handler and the timer that drives it.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod sampler {
    use std::sync::atomic::{
        compiler_fence, AtomicPtr, AtomicUsize, Ordering::Relaxed, Ordering::SeqCst,
    };

    /// Frames kept per sample, the interrupted one included.
    const DEPTH: usize = 128;
    /// Words per sample: the frame count, then the frames.
    const STRIDE: usize = DEPTH + 1;

    const SIGPROF: i32 = 27;
    const ITIMER_PROF: i32 = 2;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// `ucontext_t.uc_mcontext.gregs`: after `uc_flags`, `uc_link` and
    /// the 24-byte `uc_stack`.
    const GREGS: usize = 40;
    const REG_RBP: usize = 10;
    const REG_RSP: usize = 15;
    const REG_RIP: usize = 16;

    #[derive(Clone, Copy)]
    #[repr(C)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        interval: Timeval,
        value: Timeval,
    }

    /// glibc's `struct sigaction` on x86_64.
    #[repr(C)]
    struct SigAction {
        handler: usize,
        mask: [u64; 16],
        flags: i32,
        restorer: usize,
    }

    extern "C" {
        fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
    }

    static BUF: AtomicPtr<usize> = AtomicPtr::new(std::ptr::null_mut());
    static CAP: AtomicUsize = AtomicUsize::new(0);
    static LEN: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicUsize = AtomicUsize::new(0);
    static STACK_TOP: AtomicUsize = AtomicUsize::new(0);

    /// Records one sample. Runs on the interrupted thread's stack with
    /// `SIGPROF` blocked, so it cannot race itself; the program is
    /// single-threaded while sampling.
    extern "C" fn on_sigprof(_sig: i32, _info: *mut u8, ctx: *mut u8) {
        let (buf, len) = (BUF.load(Relaxed), LEN.load(Relaxed));
        if buf.is_null() || len >= CAP.load(Relaxed) {
            DROPPED.fetch_add(1, Relaxed);
            return;
        }
        // SAFETY: the kernel hands a valid `ucontext_t`; the sample's
        // words lie inside the buffer (`len < CAP`); every frame read
        // lies between the interrupted stack pointer and the top of the
        // stack, which is mapped, and the walk strictly ascends.
        unsafe {
            let gregs = ctx.add(GREGS) as *const usize;
            let (rip, rsp) = (*gregs.add(REG_RIP), *gregs.add(REG_RSP));
            let mut fp = *gregs.add(REG_RBP);
            let top = STACK_TOP.load(Relaxed);
            let rec = buf.add(len * STRIDE);
            *rec.add(1) = rip;
            let mut n = 1;
            while n < DEPTH && fp >= rsp && fp.is_multiple_of(8) && fp.saturating_add(16) <= top {
                let (next, ret) = (
                    std::ptr::read_volatile(fp as *const usize),
                    std::ptr::read_volatile((fp + 8) as *const usize),
                );
                if ret == 0 {
                    break;
                }
                *rec.add(1 + n) = ret;
                n += 1;
                if next <= fp {
                    break;
                }
                fp = next;
            }
            *rec = n;
        }
        LEN.store(len + 1, Relaxed);
    }

    /// An armed timer over a buffer of `capacity` samples.
    pub struct Sampler {
        buf: Vec<usize>,
        old: SigAction,
    }

    impl Sampler {
        /// Allocates the buffer, installs the handler and arms the timer.
        pub fn start(capacity: usize) -> Sampler {
            let mut buf = vec![0usize; capacity * STRIDE];
            STACK_TOP.store(super::symbols::stack_top().unwrap_or(0), Relaxed);
            CAP.store(capacity, Relaxed);
            LEN.store(0, Relaxed);
            DROPPED.store(0, Relaxed);
            BUF.store(buf.as_mut_ptr(), Relaxed);
            let act = SigAction {
                handler: on_sigprof as extern "C" fn(i32, *mut u8, *mut u8) as usize,
                mask: [0; 16],
                flags: SA_SIGINFO | SA_RESTART,
                restorer: 0,
            };
            let mut old = SigAction {
                handler: 0,
                mask: [0; 16],
                flags: 0,
                restorer: 0,
            };
            let period = Timeval {
                sec: 0,
                usec: 1_000_000 / super::HZ as i64,
            };
            let timer = Itimerval {
                interval: period,
                value: period,
            };
            compiler_fence(SeqCst);
            // SAFETY: both structs have glibc's layout and outlive the
            // calls; the handler only touches the statics set above.
            let armed = unsafe {
                sigaction(SIGPROF, &act, &mut old) == 0
                    && setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) == 0
            };
            assert!(armed, "sigaction/setitimer failed");
            Sampler { buf, old }
        }

        /// Disarms the timer, restores the previous handler and returns
        /// each sample's frames (interrupted frame first) and the count
        /// of samples the full buffer dropped.
        pub fn stop(self) -> (Vec<Vec<usize>>, usize) {
            let off = Itimerval {
                interval: Timeval { sec: 0, usec: 0 },
                value: Timeval { sec: 0, usec: 0 },
            };
            // SAFETY: as in `start`.
            unsafe {
                setitimer(ITIMER_PROF, &off, std::ptr::null_mut());
                sigaction(SIGPROF, &self.old, std::ptr::null_mut());
            }
            compiler_fence(SeqCst);
            BUF.store(std::ptr::null_mut(), Relaxed);
            let len = LEN.load(Relaxed);
            let stacks = self
                .buf
                .chunks_exact(STRIDE)
                .take(len)
                .map(|rec| rec[1..=rec[0].min(DEPTH)].to_vec())
                .collect();
            (stacks, DROPPED.load(Relaxed))
        }
    }
}

/// Address-to-name resolution for the running binary.
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod symbols {
    /// The binary's function symbols, ascending by runtime address.
    pub struct Symbols {
        starts: Vec<usize>,
        names: Vec<String>,
        /// Lowest and end address the binary is mapped at.
        image: (usize, usize),
    }

    const OUTSIDE: &str = "[libc]";
    const UNKNOWN: &str = "[unknown]";

    /// The top of the main thread's stack, from `/proc/self/maps`.
    pub fn stack_top() -> Option<usize> {
        let maps = std::fs::read_to_string("/proc/self/maps").ok()?;
        let line = maps.lines().find(|l| l.ends_with("[stack]"))?;
        let (_, hi) = range(line)?;
        Some(hi)
    }

    /// A maps line's `start-end` addresses.
    fn range(line: &str) -> Option<(usize, usize)> {
        let (lo, hi) = line.split_whitespace().next()?.split_once('-')?;
        Some((
            usize::from_str_radix(lo, 16).ok()?,
            usize::from_str_radix(hi, 16).ok()?,
        ))
    }

    impl Symbols {
        /// Reads the binary's symbol table with `nm` and its load base.
        pub fn load() -> Result<Symbols, String> {
            let exe = std::fs::read_link("/proc/self/exe").map_err(|e| e.to_string())?;
            let exe_name = exe.to_string_lossy().into_owned();
            let maps = std::fs::read_to_string("/proc/self/maps").map_err(|e| e.to_string())?;
            let mut image = (usize::MAX, 0);
            let mut base = None;
            for line in maps.lines().filter(|l| l.ends_with(exe_name.as_str())) {
                let (lo, hi) = range(line).ok_or("unreadable /proc/self/maps")?;
                image = (image.0.min(lo), image.1.max(hi));
                let offset = line
                    .split_whitespace()
                    .nth(2)
                    .and_then(|o| usize::from_str_radix(o, 16).ok());
                if offset == Some(0) && base.is_none() {
                    base = Some(lo);
                }
            }
            // A position-independent executable's symbols are relative
            // to where its first segment was mapped; a fixed one's are
            // absolute (ELF `e_type` 2).
            let header = std::fs::read(&exe).map_err(|e| e.to_string())?;
            let base = if header.get(16) == Some(&2) {
                0
            } else {
                base.ok_or("the binary is not in /proc/self/maps")?
            };
            let out = std::process::Command::new("nm")
                .args(["-n", "--demangle"])
                .arg(&exe)
                .output()
                .map_err(|e| format!("nm: {e}"))?;
            if !out.status.success() {
                return Err(format!("nm exited with {}", out.status));
            }
            let mut starts = Vec::new();
            let mut names = Vec::new();
            for line in String::from_utf8_lossy(&out.stdout).lines() {
                let mut fields = line.splitn(3, ' ');
                let (Some(addr), Some(kind), Some(name)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    continue;
                };
                let Ok(addr) = usize::from_str_radix(addr, 16) else {
                    continue;
                };
                if matches!(kind, "t" | "T" | "w" | "W") {
                    starts.push(base + addr);
                    names.push(strip_hash(name).to_string());
                }
            }
            Ok(Symbols {
                starts,
                names,
                image,
            })
        }

        /// The function containing `pc`.
        pub fn name(&self, pc: usize) -> &str {
            if pc < self.image.0 || pc >= self.image.1 {
                return OUTSIDE;
            }
            match self.starts.partition_point(|&s| s <= pc).checked_sub(1) {
                Some(i) => &self.names[i],
                None => UNKNOWN,
            }
        }
    }

    /// Drops a legacy-mangled Rust symbol's `::h<16 hex digits>` suffix.
    fn strip_hash(name: &str) -> &str {
        match name.rsplit_once("::h") {
            Some((head, hash))
                if hash.len() == 16 && hash.bytes().all(|b| b.is_ascii_hexdigit()) =>
            {
                head
            }
            _ => name,
        }
    }
}
