//! Synthetic Ethereum-like workload, the stand-in (see the README's
//! "Substitutions") for the paper's "500,000 smart contract executions
//! that were processed by Ethereum during a 2 months period ... which
//! included ~5000 contracts created" (§I/§IX).
//!
//! The generator reproduces the properties the benchmark depends on:
//! transaction *mix* (~1% creates, mostly token transfers with some mints
//! and balance queries), *contract popularity skew* (a few hot contracts
//! take most calls), and *size* (clients batch ~12 kB of transactions,
//! about 50 per batch, §IX "Measurements").

use sbft_types::U256;

use sbft_crypto::SplitMix64;
use sbft_wire::Wire;

use crate::contracts::{
    token_balance_calldata, token_code, token_mint_calldata, token_transfer_calldata,
};
use crate::tx::{Address, Transaction};

/// Configuration for the Ethereum-like trace generator.
#[derive(Debug, Clone)]
pub struct EthTraceConfig {
    /// Total transactions to generate (paper: 500,000).
    pub transactions: usize,
    /// Contracts created over the trace (paper: ~5,000).
    pub contracts: usize,
    /// Externally-owned accounts issuing transactions.
    pub accounts: usize,
    /// Per-call gas limit.
    pub gas_limit: u64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for EthTraceConfig {
    fn default() -> Self {
        EthTraceConfig {
            transactions: 500_000,
            contracts: 5_000,
            accounts: 10_000,
            gas_limit: 1_000_000,
            seed: 0x5bf7,
        }
    }
}

/// Generates the transaction trace (already wire-encoded, ready to be
/// submitted as replicated-service operations).
pub fn generate_eth_trace(config: &EthTraceConfig) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(config.seed);
    let mut trace = Vec::with_capacity(config.transactions);
    let mut deployed: Vec<Address> = Vec::with_capacity(config.contracts);
    // Accounts holding a balance in each contract, so transfers are issued
    // by funded senders (as in the real trace, where transfers that would
    // fail are never broadcast).
    let mut funded: Vec<Vec<u64>> = Vec::with_capacity(config.contracts);
    let deployer = Address::account(0);
    let mut deploy_nonce = 0u64;

    // Contracts are created as the trace progresses (front-loaded so early
    // calls have targets): create one whenever the deployed fraction lags
    // the trace fraction.
    for i in 0..config.transactions {
        let trace_frac = i as f64 / config.transactions as f64;
        let target = ((trace_frac.sqrt()) * config.contracts as f64).ceil() as usize;
        if deployed.len() < target.min(config.contracts) || deployed.is_empty() {
            let addr = Address::for_contract(&deployer, deploy_nonce);
            deploy_nonce += 1;
            deployed.push(addr);
            funded.push(Vec::new());
            trace.push(
                Transaction::Create {
                    sender: deployer,
                    code: token_code(),
                    gas_limit: 10_000_000,
                }
                .to_wire_bytes(),
            );
            continue;
        }
        // Popularity skew: square the uniform draw so low indices (older,
        // hotter contracts) are favoured.
        let u = (rng.next_u64() % 1_000_000) as f64 / 1_000_000.0;
        let idx = ((u * u) * deployed.len() as f64) as usize;
        let idx = idx.min(deployed.len() - 1);
        let contract = deployed[idx];
        let other_account = 1 + rng.next_u64() % config.accounts as u64;
        let other = Address::account(other_account);
        let roll = rng.next_u64() % 100;
        let (sender, data) = if roll < 80 && !funded[idx].is_empty() {
            // Transfer a small amount from a well-funded (minted) sender;
            // recipients are NOT added to the sender pool, so transfers
            // essentially never overdraw (matching a real trace, where
            // doomed transactions are not broadcast).
            let pick = rng.next_u64() as usize % funded[idx].len();
            let sender_account = funded[idx][pick];
            let amount = U256::from(1 + rng.next_u64() % 100);
            (
                Address::account(sender_account),
                token_transfer_calldata(&other.to_word(), &amount),
            )
        } else if roll < 95 || funded[idx].is_empty() {
            // Mint a large balance to a (newly) funded account.
            funded[idx].push(other_account);
            let amount = U256::from(1_000_000 + rng.next_u64() % 1_000_000);
            (
                Address::account(1 + rng.next_u64() % config.accounts as u64),
                token_mint_calldata(&other.to_word(), &amount),
            )
        } else {
            (
                Address::account(1 + rng.next_u64() % config.accounts as u64),
                token_balance_calldata(&other.to_word()),
            )
        };
        trace.push(
            Transaction::Call {
                sender,
                to: contract,
                data,
                gas_limit: config.gas_limit,
            }
            .to_wire_bytes(),
        );
    }
    trace
}

/// Groups a trace into client batches of roughly `batch_bytes` each
/// (§IX: "each client sends operations by batching transactions into
/// chunks of 12KB (on average about 50 transactions per batch)").
pub fn batch_trace(trace: &[Vec<u8>], batch_bytes: usize) -> Vec<Vec<Vec<u8>>> {
    let mut batches = Vec::new();
    let mut current: Vec<Vec<u8>> = Vec::new();
    let mut size = 0usize;
    for tx in trace {
        if size + tx.len() > batch_bytes && !current.is_empty() {
            batches.push(std::mem::take(&mut current));
            size = 0;
        }
        size += tx.len();
        current.push(tx.clone());
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tx::{EvmService, TxReceipt};
    use sbft_statedb::Service;
    use sbft_types::SeqNum;

    fn small_config() -> EthTraceConfig {
        EthTraceConfig {
            transactions: 2_000,
            contracts: 20,
            accounts: 100,
            gas_limit: 1_000_000,
            seed: 7,
        }
    }

    #[test]
    fn trace_has_requested_shape() {
        let cfg = small_config();
        let trace = generate_eth_trace(&cfg);
        assert_eq!(trace.len(), cfg.transactions);
        let creates = trace
            .iter()
            .filter(|t| {
                matches!(
                    Transaction::from_wire_bytes(t),
                    Ok(Transaction::Create { .. })
                )
            })
            .count();
        assert_eq!(creates, cfg.contracts);
    }

    #[test]
    fn trace_is_deterministic() {
        let a = generate_eth_trace(&small_config());
        let b = generate_eth_trace(&small_config());
        assert_eq!(a, b);
        let c = generate_eth_trace(&EthTraceConfig {
            seed: 8,
            ..small_config()
        });
        assert_ne!(a, c);
    }

    #[test]
    fn trace_executes_successfully() {
        let cfg = EthTraceConfig {
            transactions: 300,
            contracts: 5,
            accounts: 30,
            gas_limit: 1_000_000,
            seed: 3,
        };
        let trace = generate_eth_trace(&cfg);
        let mut svc = EvmService::new();
        let mut seq = 1u64;
        let mut success = 0usize;
        let mut failed = 0usize;
        for chunk in trace.chunks(50) {
            let exec = svc.execute_block(SeqNum::new(seq), chunk);
            seq += 1;
            for result in &exec.results {
                match TxReceipt::from_bytes(result) {
                    Some(r) if r.is_success() => success += 1,
                    _ => failed += 1,
                }
            }
        }
        // Occasional transfers overdraw a lightly-funded recipient and
        // revert; the bulk must succeed.
        assert_eq!(success + failed, cfg.transactions);
        assert!(success > cfg.transactions * 7 / 10, "successes: {success}");
    }

    #[test]
    fn batching_respects_size() {
        let trace = generate_eth_trace(&small_config());
        let batches = batch_trace(&trace, 12 * 1024);
        let total: usize = batches.iter().map(Vec::len).sum();
        assert_eq!(total, trace.len());
        for batch in &batches[..batches.len() - 1] {
            let bytes: usize = batch.iter().map(Vec::len).sum();
            assert!(bytes <= 12 * 1024 + 300, "batch of {bytes} bytes");
            assert!(!batch.is_empty());
        }
        // ~12 kB / ~120 B per call ≈ dozens of transactions per batch.
        let avg = total as f64 / batches.len() as f64;
        assert!((20.0..150.0).contains(&avg), "avg batch size {avg}");
    }
}
