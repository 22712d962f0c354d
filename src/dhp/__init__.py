"""Digital health-passport consortium: issuance, ledger, verification, simulation."""

from .core import (
    ActorId,
    DhpError,
    EncodingError,
    HealthPassport,
    HygienePolicy,
    InvalidDocument,
    Registry,
    Role,
    TestMethod,
    TravelDocument,
    canonical_doc_bytes,
    dhp_signing_bytes,
)
from .crypto import KeyPair, Salt, commit, keygen, new_salt, sign, verify_sig
from .ledger import (
    Block,
    BlockError,
    BlockHeader,
    ChainState,
    DhpToken,
    append_block,
    header_hash,
    lookup_by_token,
    merkle_root,
    propose_block,
    scheduled_authority,
    validate_block,
)
from .netsim import SimConfig, SimReport, check_consistency, check_theta_liveness, run_simulation
from .protocol import (
    OutcomeStatus,
    PendingDhp,
    VerificationOutcome,
    VerificationReceipt,
    ViolationReason,
    audit_manifest,
    bm_verify,
    check_policy,
    hsa_register,
    thf_issue,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
