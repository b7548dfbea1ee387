//! Run teardown: cut the callback cycles between a run's layers when the
//! run ends.
//!
//! The layers of one run reach each other through stored callbacks: pilot
//! and unit subscribers capture manager handles, SAGA job callbacks
//! capture the pilot manager, and cluster watchers capture the SAGA
//! service that owns the cluster. Each of these loops of `Rc`s outlives
//! the run unless it is cut. A [`RunTeardown`] is created as soon as the
//! managers exist and cuts every loop when it drops, so every exit of a
//! run (success, an error return or a `?`) frees what the run allocated.

use aimes_pilot::{PilotManager, UnitManager};
use aimes_saga::Session;
use std::rc::Rc;

/// Drop guard that clears every stored callback of one run.
pub(crate) struct RunTeardown {
    pm: PilotManager,
    um: UnitManager,
    session: Rc<Session>,
}

impl RunTeardown {
    pub(crate) fn new(pm: &PilotManager, um: &UnitManager, session: &Rc<Session>) -> Self {
        RunTeardown {
            pm: pm.clone(),
            um: um.clone(),
            session: session.clone(),
        }
    }
}

impl Drop for RunTeardown {
    // The guard lives in the run's outermost frame, so by the time it
    // drops (also while unwinding) no manager state is still borrowed.
    fn drop(&mut self) {
        self.um.clear_subscribers();
        self.pm.clear_subscribers();
        self.session.clear_callbacks();
    }
}
