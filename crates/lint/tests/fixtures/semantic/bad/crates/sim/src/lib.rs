//! Bad fixture: each semantic rule has one seeded violation here or in
//! a sibling crate of this workspace.
#![forbid(unsafe_code)]

/// What host state a policy needs.
pub struct StateNeeds;

impl StateNeeds {
    /// No state consulted.
    pub const NOTHING: u8 = 0;
    /// Queue lengths.
    pub const QUEUE_LEN: u8 = 2;
    /// Queue lengths and work left.
    pub const ALL: u8 = 3;
}

/// One host's view.
pub struct HostView {
    /// Jobs queued.
    pub queue_len: usize,
}

/// Full system view handed to a policy.
pub struct SystemState<'a> {
    /// All hosts.
    pub hosts: &'a [HostView],
}

/// A task-assignment policy.
pub trait Dispatcher {
    /// Declared state needs.
    fn state_needs(&self) -> u8;
    /// Pick a host for the next job.
    fn dispatch(&mut self, s: &SystemState) -> usize;
}

/// Declares NOTHING but reads queue lengths through a helper.
pub struct Shortest;

impl Dispatcher for Shortest {
    fn state_needs(&self) -> u8 {
        StateNeeds::NOTHING
    }
    fn dispatch(&mut self, s: &SystemState) -> usize {
        shortest_of(s)
    }
}

/// Index of the shortest queue — the read `Shortest` fails to declare.
fn shortest_of(s: &SystemState) -> usize {
    let mut best = 0;
    for (i, h) in s.hosts.iter().enumerate() {
        if h.queue_len < s.hosts[best].queue_len {
            best = i;
        }
    }
    best
}

/// Declares ALL but never looks at the state.
pub struct RoundRobin {
    /// Next host index.
    pub next: usize,
}

impl Dispatcher for RoundRobin {
    fn state_needs(&self) -> u8 {
        StateNeeds::ALL
    }
    fn dispatch(&mut self, s: &SystemState) -> usize {
        self.next = (self.next + 1) % s.hosts.len();
        self.next
    }
}

/// Hot kernel: must not allocate, even transitively.
// dses-lint: deny(alloc)
pub fn kernel(n: usize) -> usize {
    hop_one(n)
}

fn hop_one(n: usize) -> usize {
    hop_two(n)
}

fn hop_two(n: usize) -> usize {
    hop_three(n)
}

fn hop_three(n: usize) -> usize {
    let v: Vec<u8> = Vec::with_capacity(n);
    v.capacity() + n
}

/// Hot kernel whose allocations sit behind turbofish calls, a free one
/// and a method one with nested generics closed by `>>`.
// dses-lint: deny(alloc)
pub fn turbofish_kernel(g: &Grower, n: usize) -> usize {
    boxed::<u8>(n) + g.grow::<Vec<Vec<u8>>>(n)
}

fn boxed<T>(n: usize) -> usize {
    let b: Box<usize> = Box::new(n);
    *b
}

/// Reached from `turbofish_kernel` through a turbofish method call.
pub struct Grower;

impl Grower {
    fn grow<T>(&self, n: usize) -> usize {
        let v: Vec<u16> = vec![0; n];
        v.len()
    }
}

/// Caches through an out-of-scope helper — transitively nondeterministic.
pub fn cached(n: u64) -> u64 {
    dses_util::lookup(n)
}

fn orphan(x: Option<u32>) -> u32 {
    // dses-lint: allow(panic-hygiene) -- fixture: waiver stranded in dead code
    x.unwrap()
}
