"""Fork-choice penalty protocol laboratory.

A block-tree and fork-choice engine implementing a penalty-based
modification of proof-of-work consensus alongside the classic
heaviest-chain rule, plus the attack-economics toolkit and a deterministic
discrete-event network simulator used to study double-spend deterrence.
"""

from .chain import Block, BlockId, BlockTree
from .economics import (AttackParams, ProfitBreakdown, adess_attack_cost,
                        adess_attack_profit, attack_plan_profit,
                        boundary_blocks, broadcast_margin,
                        brute_force_optimal_plan, guo_ren_bound,
                        malicious_cost_series, min_deterring_xi,
                        moroz_round_payoff, nakamoto_attack_profit,
                        nakamoto_min_profitable_v, nakamoto_zero_profit_v,
                        penalty_margin, proposition1_check,
                        safe_value_interval)
from .errors import (AdessError, ConfigError, DomainError, InvalidDifficulty,
                     NotPenalized, SolverFailure, UnknownBlock)
from .forkchoice import AdessParams, NodeView, PenaltyRecord
from .mining import (CertaintyEquivalent, DifficultyRule, Stochastic,
                     adjust_difficulty, next_block_time,
                     required_hashrate_series, sustained_growth_cost)
from .netsim import (ProbeReport, RunReport, ScenarioConfig, accelerated_rate,
                     disconnected_node_probe, latency_split_check,
                     run_scenario)

__all__ = [
    "AdessError", "AdessParams", "AttackParams", "Block", "BlockId",
    "BlockTree", "CertaintyEquivalent", "ConfigError",
    "DifficultyRule", "DomainError", "InvalidDifficulty", "NodeView",
    "NotPenalized", "PenaltyRecord", "ProbeReport", "ProfitBreakdown",
    "RunReport", "ScenarioConfig", "SolverFailure", "Stochastic",
    "UnknownBlock", "accelerated_rate", "adess_attack_cost",
    "adess_attack_profit", "adjust_difficulty", "attack_plan_profit",
    "boundary_blocks", "broadcast_margin", "brute_force_optimal_plan",
    "disconnected_node_probe", "guo_ren_bound", "latency_split_check",
    "malicious_cost_series", "min_deterring_xi", "moroz_round_payoff",
    "nakamoto_attack_profit", "nakamoto_min_profitable_v",
    "nakamoto_zero_profit_v", "next_block_time", "penalty_margin",
    "proposition1_check", "required_hashrate_series", "run_scenario",
    "safe_value_interval", "sustained_growth_cost",
]

__version__ = "0.1.0"
