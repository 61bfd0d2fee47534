//! A minimal event-driven simulation loop.
//!
//! The engine owns the clock and the future-event list; a handler closure
//! reacts to each event and may schedule more. Most of the FREERIDE-G
//! execution model is *phase-structured* and uses the analytic components
//! ([`crate::server`], [`crate::fairshare`]) directly, but the engine is the
//! general escape hatch (and is what the fair-share simulator is built on
//! conceptually: advance to next event, update state, repeat).

use crate::event::EventQueue;
use crate::time::SimTime;

/// The hook type accepted by [`Engine::set_observer`].
pub type Observer<E> = Box<dyn FnMut(SimTime, &E)>;

/// An event-driven simulation driver.
pub struct Engine<E> {
    now: SimTime,
    queue: EventQueue<E>,
    processed: u64,
    observer: Option<Observer<E>>,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    /// A fresh engine with the clock at zero.
    pub fn new() -> Self {
        Engine { now: SimTime::ZERO, queue: EventQueue::new(), processed: 0, observer: None }
    }

    /// Install a hook called for every event, just before its handler,
    /// with the event's instant — the attachment point for tracing and
    /// metrics collection. Replaces any previous observer.
    pub fn set_observer(&mut self, observer: impl FnMut(SimTime, &E) + 'static) {
        self.observer = Some(Box::new(observer));
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events handled so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Schedule an event at an absolute instant. Panics if `at` is in the
    /// simulated past — discrete-event simulations must never rewind.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past: now={}, at={}", self.now, at);
        self.queue.push(at, event);
    }

    /// Schedule an event `after` the current instant.
    pub fn schedule_after(&mut self, after: crate::time::SimDuration, event: E) {
        let at = self.now + after;
        self.queue.push(at, event);
    }

    /// Run until the event list drains. The handler receives the engine so
    /// it can schedule follow-up events and read the clock.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Engine<E>, E)) {
        while let Some((at, event)) = self.queue.pop() {
            debug_assert!(at >= self.now, "event queue returned a past event");
            self.now = at;
            self.processed += 1;
            if let Some(obs) = self.observer.as_mut() {
                obs(at, &event);
            }
            handler(self, event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Tick(u32),
    }

    #[test]
    fn clock_advances_with_events() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_nanos(100), Ev::Tick(1));
        eng.schedule_at(SimTime::from_nanos(50), Ev::Tick(0));
        let mut seen = Vec::new();
        eng.run(|e, ev| {
            seen.push((e.now().as_nanos(), ev));
        });
        assert_eq!(seen, vec![(50, Ev::Tick(0)), (100, Ev::Tick(1))]);
        assert_eq!(eng.processed(), 2);
    }

    #[test]
    fn handler_can_cascade_events() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, 0u32);
        let mut count = 0;
        eng.run(|e, n| {
            count += 1;
            if n < 9 {
                e.schedule_after(SimDuration::from_nanos(10), n + 1);
            }
        });
        assert_eq!(count, 10);
        assert_eq!(eng.now(), SimTime::from_nanos(90));
    }

    #[test]
    fn observer_sees_every_event_before_its_handler() {
        let mut eng = Engine::new();
        for i in 0..5u32 {
            eng.schedule_at(SimTime::from_nanos(i as u64 * 10), Ev::Tick(i));
        }
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let obs_seen = seen.clone();
        eng.set_observer(move |at, ev: &Ev| {
            let Ev::Tick(i) = ev;
            obs_seen.borrow_mut().push((at.as_nanos(), *i, "obs"));
        });
        let handler_seen = seen.clone();
        eng.run(|_, ev| {
            let Ev::Tick(i) = ev;
            handler_seen.borrow_mut().push((0, i, "handler"));
        });
        let log = seen.borrow();
        assert_eq!(log.len(), 10);
        for i in 0..5usize {
            assert_eq!(log[2 * i].2, "obs");
            assert_eq!(log[2 * i + 1].2, "handler");
            assert_eq!(log[2 * i].1, i as u32);
        }
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::from_nanos(100), ());
        eng.run(|e, ()| {
            e.schedule_at(SimTime::from_nanos(50), ());
        });
    }
}
