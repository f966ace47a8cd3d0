//! The framework: component palette, instantiation, port wiring, drivers,
//! and the textual "arena" rendering that stands in for the CCAFFEINE GUI.

use crate::error::CcaError;
use crate::ports::{GoPort, ParameterPort};
use crate::services::{Component, Services};
use crate::signature::ClassSignature;
use std::collections::BTreeMap;
use std::rc::Rc;

/// One unwired, non-optional uses-port: the reason a `go` would be refused.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct DanglingPort {
    /// Instance whose slot is unwired.
    pub instance: String,
    /// The dangling uses-port name.
    pub port: String,
    /// The port type the slot expects, for actionable diagnostics.
    pub type_name: &'static str,
}

impl std::fmt::Display for DanglingPort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}.{} (expects {})",
            self.instance, self.port, self.type_name
        )
    }
}

/// Factory producing a fresh component instance — the reproduction's
/// equivalent of a dynamically loadable `.so` in the palette.
pub type Factory = Box<dyn Fn() -> Box<dyn Component>>;

struct Instance {
    class: String,
    /// Kept alive for the lifetime of the framework; the component's state
    /// is reachable through the port objects it registered.
    _component: Box<dyn Component>,
    services: Services,
}

/// One CCAFFEINE framework instance.
///
/// Under SCMD parallelism, *each rank constructs its own `Framework`* from
/// the same script, so `P` identically configured frameworks exist — the
/// paper's "identical frameworks, containing the same components, are
/// instantiated on all P processors". The framework itself provides no
/// message passing (components do that through `cca-comm`).
pub struct Framework {
    palette: BTreeMap<String, Factory>,
    instances: BTreeMap<String, Instance>,
    /// Instantiation order, for stable arena rendering.
    order: Vec<String>,
    /// Shared per-component performance registry (TAU stand-in).
    profiler: crate::profile::Profiler,
    /// Shared patch-kernel executor, handed to every instance's
    /// [`Services`] (serial unless configured otherwise).
    executor: crate::executor::Executor,
}

impl Default for Framework {
    fn default() -> Self {
        let profiler = crate::profile::Profiler::new();
        let executor = crate::executor::Executor::new(profiler.clone());
        Framework {
            palette: BTreeMap::new(),
            instances: BTreeMap::new(),
            order: Vec::new(),
            profiler,
            executor,
        }
    }
}

impl Framework {
    /// Empty framework with an empty palette. The executor worker count is
    /// initialized from the `CCA_HYDRO_THREADS` environment variable
    /// ([`crate::executor::WORKERS_ENV`]) when set; the default is serial.
    pub fn new() -> Self {
        let fw = Self::default();
        let env = std::env::var(crate::executor::WORKERS_ENV).ok();
        fw.executor
            .set_workers(crate::executor::Executor::workers_from_env_value(
                env.as_deref(),
            ));
        fw
    }

    /// The framework's shared patch-kernel [`crate::executor::Executor`]
    /// (the same handle every instantiated component receives).
    pub fn executor(&self) -> crate::executor::Executor {
        self.executor.clone()
    }

    /// Set the patch-kernel worker count for the whole assembly (clamped
    /// to at least 1; 1 means serial inline execution). Components see the
    /// change on their next executor run.
    pub fn set_workers(&self, workers: usize) {
        self.executor.set_workers(workers);
    }

    /// Add a component class to the palette.
    pub fn register_class<F>(&mut self, class: &str, factory: F)
    where
        F: Fn() -> Box<dyn Component> + 'static,
    {
        self.palette.insert(class.to_string(), Box::new(factory));
    }

    /// Classes available for instantiation (sorted).
    pub fn palette_classes(&self) -> Vec<String> {
        self.palette.keys().cloned().collect()
    }

    /// Harvest the declared port signature of one palette class by
    /// instantiating it into a scratch [`Services`] registry (the instance
    /// is dropped immediately; the framework is not modified). This is the
    /// manifest static analysis tools type-check scripts against.
    pub fn class_signature(&self, class: &str) -> Result<ClassSignature, CcaError> {
        let factory = self
            .palette
            .get(class)
            .ok_or_else(|| CcaError::UnknownClass(class.to_string()))?;
        let mut component = factory();
        let services = Services::new(&format!("<signature-probe:{class}>"));
        component.set_services(services.clone());
        Ok(ClassSignature::harvest(class, &services))
    }

    /// Signatures for every class in the palette (sorted by class name).
    pub fn class_signatures(&self) -> BTreeMap<String, ClassSignature> {
        self.palette
            .keys()
            .map(|class| {
                let sig = self
                    .class_signature(class)
                    .expect("palette key is a known class");
                (class.clone(), sig)
            })
            .collect()
    }

    /// Create an instance of `class` named `name` and run its
    /// `set_services`.
    pub fn instantiate(&mut self, class: &str, name: &str) -> Result<(), CcaError> {
        if self.instances.contains_key(name) {
            return Err(CcaError::DuplicateInstance(name.to_string()));
        }
        let factory = self
            .palette
            .get(class)
            .ok_or_else(|| CcaError::UnknownClass(class.to_string()))?;
        let mut component = factory();
        let services = Services::with_runtime(name, self.profiler.clone(), self.executor.clone());
        component.set_services(services.clone());
        self.instances.insert(
            name.to_string(),
            Instance {
                class: class.to_string(),
                _component: component,
                services,
            },
        );
        self.order.push(name.to_string());
        Ok(())
    }

    /// The services registry of instance `name` (for tests and drivers).
    pub fn services(&self, name: &str) -> Result<Services, CcaError> {
        Ok(self
            .instances
            .get(name)
            .ok_or_else(|| CcaError::UnknownInstance(name.to_string()))?
            .services
            .clone())
    }

    /// The palette class an instance was created from.
    pub fn class_of(&self, name: &str) -> Result<String, CcaError> {
        Ok(self
            .instances
            .get(name)
            .ok_or_else(|| CcaError::UnknownInstance(name.to_string()))?
            .class
            .clone())
    }

    /// Instance names in instantiation order.
    pub fn instance_names(&self) -> Vec<String> {
        self.order.clone()
    }

    /// Wire `user.uses_port` to `provider.provides_port`.
    ///
    /// Type compatibility is checked: both sides must have declared the same
    /// port type (`Rc<dyn SameTrait>`). On success the provider's `Rc` is
    /// cloned into the user's slot — the "movement of (pointers to)
    /// interfaces" of paper §2.
    pub fn connect(
        &mut self,
        user: &str,
        uses_port: &str,
        provider: &str,
        provides_port: &str,
    ) -> Result<(), CcaError> {
        let (dup, p_type_id, p_type_name) = {
            let prov = self
                .instances
                .get(provider)
                .ok_or_else(|| CcaError::UnknownInstance(provider.to_string()))?;
            let st = prov.services.state.borrow();
            let po = st
                .provides
                .get(provides_port)
                .ok_or_else(|| CcaError::UnknownPort {
                    instance: provider.to_string(),
                    port: provides_port.to_string(),
                })?;
            (po.duplicate(), po.type_id, po.type_name)
        };
        let user_inst = self
            .instances
            .get(user)
            .ok_or_else(|| CcaError::UnknownInstance(user.to_string()))?;
        let mut st = user_inst.services.state.borrow_mut();
        let slot = st
            .uses
            .get_mut(uses_port)
            .ok_or_else(|| CcaError::UnknownPort {
                instance: user.to_string(),
                port: uses_port.to_string(),
            })?;
        if slot.type_id != p_type_id {
            return Err(CcaError::TypeMismatch {
                expected: slot.type_name.to_string(),
                found: p_type_name.to_string(),
            });
        }
        slot.connected = Some(dup);
        slot.connected_to = Some((provider.to_string(), provides_port.to_string()));
        Ok(())
    }

    /// Undo a connection; subsequent `get_port` on the user errors with
    /// `NotConnected`.
    pub fn disconnect(&mut self, user: &str, uses_port: &str) -> Result<(), CcaError> {
        let user_inst = self
            .instances
            .get(user)
            .ok_or_else(|| CcaError::UnknownInstance(user.to_string()))?;
        let mut st = user_inst.services.state.borrow_mut();
        let slot = st
            .uses
            .get_mut(uses_port)
            .ok_or_else(|| CcaError::UnknownPort {
                instance: user.to_string(),
                port: uses_port.to_string(),
            })?;
        slot.connected = None;
        slot.connected_to = None;
        Ok(())
    }

    /// Uses-ports that are still dangling, as `(instance, port)` pairs,
    /// sorted by instance then port for deterministic diagnostics. The
    /// script interpreter refuses `go` while any exist.
    pub fn dangling_uses_ports(&self) -> Vec<(String, String)> {
        self.dangling_uses_ports_detailed()
            .into_iter()
            .map(|d| (d.instance, d.port))
            .collect()
    }

    /// Like [`Framework::dangling_uses_ports`] but carrying each slot's
    /// expected port type, sorted by `(instance, port)`.
    pub fn dangling_uses_ports_detailed(&self) -> Vec<DanglingPort> {
        let mut out = Vec::new();
        for name in &self.order {
            let inst = &self.instances[name];
            let st = inst.services.state.borrow();
            for (pname, slot) in &st.uses {
                if slot.connected.is_none() && !slot.optional {
                    out.push(DanglingPort {
                        instance: name.clone(),
                        port: pname.clone(),
                        type_name: slot.type_name,
                    });
                }
            }
        }
        out.sort();
        out
    }

    /// The framework's shared [`crate::profile::Profiler`]. Enable it
    /// before `go` to collect the per-component timing report.
    pub fn profiler(&self) -> crate::profile::Profiler {
        self.profiler.clone()
    }

    /// Invoke `go()` on a provides-port of type [`GoPort`].
    pub fn go(&self, instance: &str, port: &str) -> Result<(), CcaError> {
        let inst = self
            .instances
            .get(instance)
            .ok_or_else(|| CcaError::UnknownInstance(instance.to_string()))?;
        let go: Rc<dyn GoPort> = {
            let st = inst.services.state.borrow();
            let po = st.provides.get(port).ok_or_else(|| CcaError::UnknownPort {
                instance: instance.to_string(),
                port: port.to_string(),
            })?;
            po.downcast_ref::<Rc<dyn GoPort>>()
                .ok_or_else(|| CcaError::NotAGoPort(port.to_string()))?
                .clone()
        };
        let _scope = self.profiler.scope(&format!("{instance}.{port}"));
        go.go().map_err(CcaError::GoFailed)
    }

    /// Fetch a provides-port directly from the framework — what the
    /// CCAFFEINE driver shell does when the user pokes a component from
    /// the command line. `P` must match the registered port type exactly
    /// (`Rc<dyn Trait>`).
    pub fn get_provides_port<P: Clone + 'static>(
        &self,
        instance: &str,
        port: &str,
    ) -> Result<P, CcaError> {
        let inst = self
            .instances
            .get(instance)
            .ok_or_else(|| CcaError::UnknownInstance(instance.to_string()))?;
        let st = inst.services.state.borrow();
        let po = st.provides.get(port).ok_or_else(|| CcaError::UnknownPort {
            instance: instance.to_string(),
            port: port.to_string(),
        })?;
        po.downcast_ref::<P>()
            .cloned()
            .ok_or_else(|| CcaError::TypeMismatch {
                expected: std::any::type_name::<P>().to_string(),
                found: po.type_name.to_string(),
            })
    }

    /// Set a named parameter on an instance through any provides-port of
    /// type [`ParameterPort`] (the first one found).
    pub fn set_parameter(&self, instance: &str, key: &str, value: f64) -> Result<(), CcaError> {
        let inst = self
            .instances
            .get(instance)
            .ok_or_else(|| CcaError::UnknownInstance(instance.to_string()))?;
        let st = inst.services.state.borrow();
        for po in st.provides.values() {
            if let Some(p) = po.downcast_ref::<Rc<dyn ParameterPort>>() {
                p.set_parameter(key, value);
                return Ok(());
            }
        }
        Err(CcaError::NoParameterPort(instance.to_string()))
    }

    /// Text rendering of the assembly — the stand-in for the GUI "arena"
    /// screenshots (Figs 1, 2, 5): every component as a box with
    /// provides-ports on the left, uses-ports on the right, followed by the
    /// connection list.
    pub fn render_arena(&self) -> String {
        let mut out = String::new();
        out.push_str("=== arena ===\n");
        for name in &self.order {
            let inst = &self.instances[name];
            let st = inst.services.state.borrow();
            out.push_str(&format!("[{name} : {}]\n", inst.class));
            for p in st.provides.keys() {
                out.push_str(&format!("  provides> {p}\n"));
            }
            for (u, slot) in &st.uses {
                match &slot.connected_to {
                    Some((pi, pp)) => out.push_str(&format!("  uses>     {u} -> {pi}.{pp}\n")),
                    None => out.push_str(&format!("  uses>     {u} -> (dangling)\n")),
                }
            }
        }
        out
    }
}

impl Drop for Framework {
    /// Break the component ↔ registry reference cycles. A component
    /// typically stores its [`Services`] handle, and that registry's
    /// provides table holds the component's port objects (and its uses
    /// table holds other components' ports), so without this no
    /// assembled framework would ever be freed. Port handles cloned out
    /// of the framework stay valid; only the framework's tables let go.
    fn drop(&mut self) {
        for inst in self.instances.values() {
            // A registry still borrowed elsewhere is left as it is: a
            // leak is better than a panic inside `drop`.
            let Ok(mut st) = inst.services.state.try_borrow_mut() else {
                continue;
            };
            let tables = (
                std::mem::take(&mut st.provides),
                std::mem::take(&mut st.uses),
            );
            // Dropped after the borrow ends: a port's own destructor may
            // reach back into this registry.
            drop(st);
            drop(tables);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    trait Counter {
        fn bump(&self) -> u32;
    }
    struct C {
        n: Cell<u32>,
    }
    impl Counter for C {
        fn bump(&self) -> u32 {
            self.n.set(self.n.get() + 1);
            self.n.get()
        }
    }

    struct Prov;
    impl Component for Prov {
        fn set_services(&mut self, s: Services) {
            s.add_provides_port::<Rc<dyn Counter>>("ctr", Rc::new(C { n: Cell::new(0) }));
        }
    }

    struct User;
    impl Component for User {
        fn set_services(&mut self, s: Services) {
            s.register_uses_port::<Rc<dyn Counter>>("ctr-in");
        }
    }

    trait Other {
        #[allow(dead_code)]
        fn x(&self);
    }
    struct WrongUser;
    impl Component for WrongUser {
        fn set_services(&mut self, s: Services) {
            s.register_uses_port::<Rc<dyn Other>>("ctr-in");
        }
    }

    fn fw() -> Framework {
        let mut fw = Framework::new();
        fw.register_class("Prov", || Box::new(Prov));
        fw.register_class("User", || Box::new(User));
        fw.register_class("WrongUser", || Box::new(WrongUser));
        fw
    }

    #[test]
    fn connect_moves_shared_rc() {
        let mut fw = fw();
        fw.instantiate("Prov", "p").unwrap();
        fw.instantiate("User", "u1").unwrap();
        fw.instantiate("User", "u2").unwrap();
        fw.connect("u1", "ctr-in", "p", "ctr").unwrap();
        fw.connect("u2", "ctr-in", "p", "ctr").unwrap();
        // Both users observe the same underlying instance (peer sharing).
        let c1: Rc<dyn Counter> = fw.services("u1").unwrap().get_port("ctr-in").unwrap();
        let c2: Rc<dyn Counter> = fw.services("u2").unwrap().get_port("ctr-in").unwrap();
        assert_eq!(c1.bump(), 1);
        assert_eq!(c2.bump(), 2);
    }

    #[test]
    fn type_mismatch_rejected() {
        let mut fw = fw();
        fw.instantiate("Prov", "p").unwrap();
        fw.instantiate("WrongUser", "w").unwrap();
        let err = fw.connect("w", "ctr-in", "p", "ctr").unwrap_err();
        assert!(matches!(err, CcaError::TypeMismatch { .. }), "{err}");
    }

    #[test]
    fn unknown_names_are_reported() {
        let mut fw = fw();
        assert!(matches!(
            fw.instantiate("Nope", "x").unwrap_err(),
            CcaError::UnknownClass(_)
        ));
        fw.instantiate("Prov", "p").unwrap();
        assert!(matches!(
            fw.instantiate("Prov", "p").unwrap_err(),
            CcaError::DuplicateInstance(_)
        ));
        assert!(matches!(
            fw.connect("p", "x", "ghost", "y").unwrap_err(),
            CcaError::UnknownInstance(_)
        ));
        assert!(matches!(
            fw.connect("p", "nope", "p", "ctr").unwrap_err(),
            CcaError::UnknownPort { .. }
        ));
    }

    #[test]
    fn disconnect_restores_dangling() {
        let mut fw = fw();
        fw.instantiate("Prov", "p").unwrap();
        fw.instantiate("User", "u").unwrap();
        assert_eq!(fw.dangling_uses_ports().len(), 1);
        fw.connect("u", "ctr-in", "p", "ctr").unwrap();
        assert!(fw.dangling_uses_ports().is_empty());
        fw.disconnect("u", "ctr-in").unwrap();
        assert_eq!(
            fw.dangling_uses_ports(),
            vec![("u".to_string(), "ctr-in".to_string())]
        );
        let err = fw
            .services("u")
            .unwrap()
            .get_port::<Rc<dyn Counter>>("ctr-in")
            .err()
            .unwrap();
        assert!(matches!(err, CcaError::NotConnected { .. }));
    }

    /// A component that keeps its own `Services` handle and provides a
    /// port backed by itself — the self-referencing shape every real
    /// component has.
    struct SelfProv;
    struct SelfPort {
        _services: Services,
    }
    impl Counter for SelfPort {
        fn bump(&self) -> u32 {
            0
        }
    }
    impl Component for SelfProv {
        fn set_services(&mut self, s: Services) {
            let port = Rc::new(SelfPort {
                _services: s.clone(),
            });
            s.add_provides_port::<Rc<dyn Counter>>("ctr", port);
            s.register_uses_port::<Rc<dyn Counter>>("ctr-in");
        }
    }

    #[test]
    fn dropping_the_framework_frees_self_providing_components() {
        let mut fw = fw();
        fw.register_class("SelfProv", || Box::new(SelfProv));
        fw.instantiate("SelfProv", "s").unwrap();
        // Its own provider: the uses slot holds the provides port too.
        fw.connect("s", "ctr-in", "s", "ctr").unwrap();
        let state = Rc::downgrade(&fw.services("s").unwrap().state);
        assert!(state.upgrade().is_some());
        drop(fw);
        assert!(
            state.upgrade().is_none(),
            "the services state outlived its framework (reference cycle)"
        );
    }

    #[test]
    fn arena_renders_wiring() {
        let mut fw = fw();
        fw.instantiate("Prov", "p").unwrap();
        fw.instantiate("User", "u").unwrap();
        fw.connect("u", "ctr-in", "p", "ctr").unwrap();
        let arena = fw.render_arena();
        assert!(arena.contains("[p : Prov]"));
        assert!(arena.contains("provides> ctr"));
        assert!(arena.contains("uses>     ctr-in -> p.ctr"));
    }

    struct Driver;
    impl GoPort for Driver {
        fn go(&self) -> Result<(), String> {
            Ok(())
        }
    }
    struct FailingDriver;
    impl GoPort for FailingDriver {
        fn go(&self) -> Result<(), String> {
            Err("boom".into())
        }
    }
    struct D;
    impl Component for D {
        fn set_services(&mut self, s: Services) {
            s.add_provides_port::<Rc<dyn GoPort>>("go", Rc::new(Driver));
            s.add_provides_port::<Rc<dyn GoPort>>("go-fail", Rc::new(FailingDriver));
        }
    }

    #[test]
    fn go_dispatches_and_propagates_failures() {
        let mut fw = Framework::new();
        fw.register_class("D", || Box::new(D));
        fw.register_class("Prov", || Box::new(Prov));
        fw.instantiate("D", "d").unwrap();
        fw.instantiate("Prov", "p").unwrap();
        fw.go("d", "go").unwrap();
        assert!(matches!(
            fw.go("d", "go-fail").unwrap_err(),
            CcaError::GoFailed(_)
        ));
        assert!(matches!(
            fw.go("p", "ctr").unwrap_err(),
            CcaError::NotAGoPort(_)
        ));
    }
}
