//! The pre-configured workflow ("process-type") supply chain of Figure 3 —
//! the baseline the paper contrasts with the news supply chain.
//!
//! "These current workflow process type of blockchain supply chains
//! consist of pre-configured limited number of processing steps and the
//! blockchain network architecture is therefore can be pre-fixed" (§VI).
//! Items flow through a fixed linear pipeline of stages run by a fixed,
//! small set of participants; consumers only consume the end product and
//! never become graph nodes. The E1 experiment measures how this
//! fixed-topology chain compares in scale and trace cost to the dynamic
//! news graph of Figure 4.

use std::collections::HashMap;

use tn_crypto::sha256::tagged_hash;
use tn_crypto::{Address, Hash256};

/// A stage in the fixed workflow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Stage {
    /// Raw-material producer.
    Producer,
    /// Processing plant.
    Processor,
    /// Distribution / logistics.
    Distributor,
    /// Retail endpoint.
    Retailer,
}

impl Stage {
    /// All stages in workflow order.
    pub const PIPELINE: [Stage; 4] = [
        Stage::Producer,
        Stage::Processor,
        Stage::Distributor,
        Stage::Retailer,
    ];

    /// The next stage, or `None` after retail.
    pub(crate) fn next(self) -> Option<Stage> {
        let i = Stage::PIPELINE
            .iter()
            .position(|s| *s == self)
            .expect("in pipeline");
        Stage::PIPELINE.get(i + 1).copied()
    }
}

/// One ledger entry: an item passing through a stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessStep {
    /// Item being tracked.
    pub(crate) item: Hash256,
    /// Stage completed.
    pub(crate) stage: Stage,
    /// Participant that performed the stage.
    pub(crate) actor: Address,
    /// Logical time.
    pub(crate) at: u64,
}

/// Errors for the process chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcessError {
    /// Step submitted out of workflow order.
    OutOfOrder {
        /// Stage expected next for the item.
        expected: Stage,
        /// Stage actually submitted.
        actual: Stage,
    },
    /// Actor is not registered for that stage.
    WrongActor(Stage),
    /// The item already completed the pipeline.
    Completed,
}

impl std::fmt::Display for ProcessError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcessError::OutOfOrder { expected, actual } => {
                write!(f, "expected stage {expected:?}, got {actual:?}")
            }
            ProcessError::WrongActor(s) => write!(f, "actor not registered for stage {s:?}"),
            ProcessError::Completed => f.write_str("item already completed the pipeline"),
        }
    }
}

impl std::error::Error for ProcessError {}

/// The fixed-topology process supply chain.
#[derive(Debug, Default)]
pub struct ProcessSupplyChain {
    /// Registered actor per stage (the "pre-fixed network architecture").
    actors: HashMap<Stage, Address>,
    /// Ledger of steps, append-only.
    ledger: Vec<ProcessStep>,
    /// item → index of steps, for tracing.
    by_item: HashMap<Hash256, Vec<usize>>,
}

impl ProcessSupplyChain {
    /// Creates a chain with one registered actor per stage.
    pub fn new(actors: [(Stage, Address); 4]) -> Self {
        ProcessSupplyChain {
            actors: actors.into_iter().collect(),
            ledger: Vec::new(),
            by_item: HashMap::new(),
        }
    }

    /// Derives an item id from a human label.
    pub fn item_id(label: &str) -> Hash256 {
        tagged_hash("TN/process-item", label.as_bytes())
    }

    /// Ledger length.
    pub fn len(&self) -> usize {
        self.ledger.len()
    }

    /// True when no steps are recorded.
    pub fn is_empty(&self) -> bool {
        self.ledger.is_empty()
    }

    /// Records a step, enforcing workflow order and actor registration.
    ///
    /// # Errors
    ///
    /// [`ProcessError`] variants for order, actor, or completion
    /// violations.
    pub fn record(
        &mut self,
        item: Hash256,
        stage: Stage,
        actor: Address,
        at: u64,
    ) -> Result<(), ProcessError> {
        let expected = match self.by_item.get(&item).and_then(|idxs| idxs.last()) {
            None => Stage::Producer,
            Some(&last) => match self.ledger[last].stage.next() {
                Some(next) => next,
                None => return Err(ProcessError::Completed),
            },
        };
        if stage != expected {
            return Err(ProcessError::OutOfOrder {
                expected,
                actual: stage,
            });
        }
        if self.actors.get(&stage) != Some(&actor) {
            return Err(ProcessError::WrongActor(stage));
        }
        let idx = self.ledger.len();
        self.ledger.push(ProcessStep {
            item,
            stage,
            actor,
            at,
        });
        self.by_item.entry(item).or_default().push(idx);
        Ok(())
    }

    /// Traces an item: its steps in order. Tracing is trivially O(steps)
    /// because the topology is fixed — the contrast with the news graph.
    pub fn trace(&self, item: &Hash256) -> Vec<&ProcessStep> {
        self.by_item
            .get(item)
            .map(|idxs| idxs.iter().map(|&i| &self.ledger[i]).collect())
            .unwrap_or_default()
    }

    /// True when the item has passed every stage.
    pub fn is_complete(&self, item: &Hash256) -> bool {
        self.trace(item).len() == Stage::PIPELINE.len()
    }

    /// Number of distinct participants — constant (4) regardless of item
    /// volume, unlike the news graph whose participant set grows with the
    /// population.
    pub fn participant_count(&self) -> usize {
        self.actors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tn_crypto::Keypair;

    fn actors() -> [(Stage, Address); 4] {
        [
            (Stage::Producer, Keypair::from_seed(b"farm").address()),
            (Stage::Processor, Keypair::from_seed(b"plant").address()),
            (Stage::Distributor, Keypair::from_seed(b"truck").address()),
            (Stage::Retailer, Keypair::from_seed(b"shop").address()),
        ]
    }

    fn actor(stage: Stage) -> Address {
        actors().iter().find(|(s, _)| *s == stage).unwrap().1
    }

    #[test]
    fn full_pipeline_flows() {
        let mut chain = ProcessSupplyChain::new(actors());
        let item = ProcessSupplyChain::item_id("batch-1");
        for (t, stage) in Stage::PIPELINE.into_iter().enumerate() {
            chain.record(item, stage, actor(stage), t as u64).unwrap();
        }
        assert!(chain.is_complete(&item));
        let trace = chain.trace(&item);
        assert_eq!(trace.len(), 4);
        assert_eq!(trace[0].stage, Stage::Producer);
        assert_eq!(trace[3].stage, Stage::Retailer);
        assert_eq!(chain.participant_count(), 4);
    }

    #[test]
    fn out_of_order_rejected() {
        let mut chain = ProcessSupplyChain::new(actors());
        let item = ProcessSupplyChain::item_id("batch-2");
        let err = chain
            .record(item, Stage::Processor, actor(Stage::Processor), 0)
            .unwrap_err();
        assert_eq!(
            err,
            ProcessError::OutOfOrder {
                expected: Stage::Producer,
                actual: Stage::Processor
            }
        );
    }

    #[test]
    fn wrong_actor_rejected() {
        let mut chain = ProcessSupplyChain::new(actors());
        let item = ProcessSupplyChain::item_id("batch-3");
        let err = chain
            .record(item, Stage::Producer, actor(Stage::Retailer), 0)
            .unwrap_err();
        assert_eq!(err, ProcessError::WrongActor(Stage::Producer));
    }

    #[test]
    fn completed_item_closed() {
        let mut chain = ProcessSupplyChain::new(actors());
        let item = ProcessSupplyChain::item_id("batch-4");
        for (t, stage) in Stage::PIPELINE.into_iter().enumerate() {
            chain.record(item, stage, actor(stage), t as u64).unwrap();
        }
        assert_eq!(
            chain.record(item, Stage::Producer, actor(Stage::Producer), 9),
            Err(ProcessError::Completed)
        );
    }

    #[test]
    fn many_items_interleave() {
        let mut chain = ProcessSupplyChain::new(actors());
        let items: Vec<Hash256> = (0..10)
            .map(|i| ProcessSupplyChain::item_id(&format!("b{i}")))
            .collect();
        for stage in Stage::PIPELINE {
            for item in &items {
                chain.record(*item, stage, actor(stage), 0).unwrap();
            }
        }
        assert_eq!(chain.len(), 40);
        assert!(items.iter().all(|i| chain.is_complete(i)));
        // Participant set stays fixed.
        assert_eq!(chain.participant_count(), 4);
    }

    #[test]
    fn stage_pipeline_order() {
        assert_eq!(Stage::Producer.next(), Some(Stage::Processor));
        assert_eq!(Stage::Retailer.next(), None);
    }
}
