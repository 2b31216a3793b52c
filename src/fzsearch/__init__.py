"""Fuzzy keyword search over encrypted indexes.

Data owners build an encrypted index (flat listing or symbol trie) over a
document corpus; a semi-trusted server answers trapdoor requests, optionally
with verifiable proofs; users within edit distance k of an indexed keyword
recover the matching encrypted file identifiers.
"""

from .crypto import (
    KeyMaterial,
    decrypt_record,
    encrypt_record,
    keygen,
    prp,
    trapdoor,
)
from .errors import (
    AuthFailure,
    BadLength,
    BadMagic,
    BadParameter,
    BudgetExceeded,
    DegenerateWord,
    DuplicateUser,
    EditBoundExceeded,
    EmptyKeyword,
    FzError,
    Truncated,
    UnknownUser,
    VersionUnsupported,
)
from .fuzzyset import (
    edit_distance,
    enumeration_fuzzy_set,
    fuzzy_set,
    gram_fuzzy_set,
    normalize_keyword,
    wildcard_fuzzy_set,
)
from .index import (
    ListingIndex,
    ResultSet,
    SearchRequest,
    TrieIndex,
    build_listing_index,
    build_trie_index,
    make_request,
    search_listing,
    search_trie,
    symbolize,
    symbols_to_bytes,
)
from .multiuser import UserDirectory, blind_request, unblind_request
from .persist import (
    load_directory,
    load_index,
    load_keys,
    save_directory,
    save_index,
    save_keys,
)
from .verifiable import (
    AuthTrieIndex,
    Proof,
    Verdict,
    VerdictReason,
    build_auth_trie,
    search_with_proof,
    verify,
)

__version__ = "0.1.0"
