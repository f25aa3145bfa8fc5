//! A failed call leaves the contract state untouched.
//!
//! A contract transaction that fails still pays its fee and bumps its
//! nonce, but its receipt says it did nothing, so whatever a built-in
//! wrote before refusing would be state no receipt accounts for, carried
//! into every checkpoint. Nothing rolls a call back: each built-in must
//! refuse before it writes. This property holds all four to that, over
//! sequences of calls from the owner, a registered fact checker and a
//! stranger with every op byte from 0 to 11 and tails assembled from the
//! values the ops decode (known addresses, small ids and amounts, raw
//! words, strings, stray bytes).

use proptest::prelude::*;

use tn_chain::codec::Encoder;
use tn_chain::state::TxExecutor;
use tn_contracts::builtin::{
    admission_register_checker, FactDbAdmission, IncentiveContract, NewsroomRegistry,
    RankingContract,
};
use tn_contracts::executor::ContractRegistry;
use tn_crypto::sha256::sha256;
use tn_crypto::{Address, Keypair};

/// A registry holding the four built-ins the platform installs, with the
/// checker registered, and the addresses of its contracts and callers.
fn genesis() -> (ContractRegistry, [Address; 4], [Address; 3]) {
    let owner = Keypair::from_seed(b"atomicity owner").address();
    let checker = Keypair::from_seed(b"atomicity checker").address();
    let stranger = Keypair::from_seed(b"atomicity stranger").address();
    let mut reg = ContractRegistry::new();
    let contracts = [
        reg.install_builtin(Box::new(NewsroomRegistry::new())),
        reg.install_builtin(Box::new(RankingContract::new(owner))),
        reg.install_builtin(Box::new(IncentiveContract::new(owner))),
        reg.install_builtin(Box::new(FactDbAdmission::new(owner, 2))),
    ];
    reg.call(
        &owner,
        &contracts[3],
        &admission_register_checker(&checker),
        10_000,
    )
    .expect("the owner registers a checker");
    (reg, contracts, [owner, checker, stranger])
}

/// One call input: the op byte, then each `(kind, value)` piece.
fn input(op: u8, pieces: &[(u8, u64)], callers: &[Address; 3]) -> Vec<u8> {
    let mut e = Encoder::new();
    e.put_u8(op);
    for &(kind, value) in pieces {
        match kind % 6 {
            0 => e.put_hash(callers[(value % 3) as usize].as_hash()),
            1 => e.put_hash(&sha256(&[(value % 2) as u8])),
            2 => e.put_u64(value % 4),
            3 => e.put_u64(value),
            4 => e.put_str(["", "room", "Daily Facts"][(value % 3) as usize]),
            _ => e.put_u8(value as u8),
        };
    }
    e.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn failed_builtin_calls_leave_state_untouched(
        calls in proptest::collection::vec(
            (
                0usize..4,
                0usize..3,
                0u8..=11,
                proptest::collection::vec((any::<u8>(), any::<u64>()), 0..5),
            ),
            1..40,
        )
    ) {
        let (mut reg, contracts, callers) = genesis();
        for (contract, caller, op, pieces) in &calls {
            let before = reg.save_state();
            let bytes = input(*op, pieces, &callers);
            if let Err(e) = reg.call(&callers[*caller], &contracts[*contract], &bytes, 10_000) {
                prop_assert!(
                    reg.save_state() == before,
                    "contract {} op {} from caller {} failed ({}) but changed state",
                    contract, op, caller, e
                );
            }
        }
    }
}
