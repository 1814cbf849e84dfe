//! Good fixture: clean under every semantic rule.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// What host state a policy needs.
pub struct StateNeeds;

impl StateNeeds {
    /// Queue lengths only.
    pub const QUEUE_LEN: u8 = 2;
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

/// Declares exactly the state it reads.
pub struct Shortest;

impl Dispatcher for Shortest {
    fn state_needs(&self) -> u8 {
        StateNeeds::QUEUE_LEN
    }
    fn dispatch(&mut self, s: &SystemState) -> usize {
        shortest_of(s)
    }
}

/// Index of the shortest queue.
fn shortest_of(s: &SystemState) -> usize {
    let mut best = 0;
    for (i, h) in s.hosts.iter().enumerate() {
        if h.queue_len < s.hosts[best].queue_len {
            best = i;
        }
    }
    best
}

/// Hot kernel: allocation-free through every hop, including the one
/// into the crate below.
// dses-lint: deny(alloc)
pub fn kernel(n: usize) -> usize {
    dses_dist::scale(hop(n))
}

fn hop(n: usize) -> usize {
    n.saturating_add(1)
}

/// Hot kernel calling through turbofishes, free and method, into
/// helpers that allocate nothing.
// dses-lint: deny(alloc)
pub fn turbofish_kernel(g: &Doubler, n: usize) -> usize {
    widen::<u8>(n) + g.double::<Vec<Vec<u8>>>(n)
}

fn widen<T>(n: usize) -> usize {
    n.saturating_add(std::mem::size_of::<T>())
}

/// Reached from `turbofish_kernel` through a turbofish method call.
pub struct Doubler;

impl Doubler {
    fn double<T>(&self, n: usize) -> usize {
        n.saturating_mul(2)
    }
}

/// Head-of-queue accessor used by the test below, so its waiver sits
/// on a reachable function.
pub fn first_queue(s: &SystemState) -> usize {
    // dses-lint: allow(panic-hygiene) -- fixture: length asserted by every caller
    s.hosts.first().map(|h| h.queue_len).unwrap()
}

#[cfg(test)]
mod tests {
    #[test]
    fn first_queue_reads_the_head() {
        let hosts = [super::HostView { queue_len: 3 }];
        let s = super::SystemState { hosts: &hosts };
        assert_eq!(super::first_queue(&s), 3);
        assert_eq!(super::kernel(1), 6);
        assert_eq!(super::turbofish_kernel(&super::Doubler, 1), 4);
    }
}
