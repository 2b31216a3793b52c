"""Fuzzy keyword search over encrypted indexes.

Data owners build an encrypted index (flat listing or symbol trie) over a
document corpus; a semi-trusted server answers trapdoor requests, optionally
with verifiable proofs; users within edit distance k of an indexed keyword
recover the matching encrypted file identifiers.

Every exported name loads on first use: ``import fzsearch`` imports no
submodule, and ``fzsearch.keygen`` imports ``fzsearch.keys`` when it is first
read (PEP 562).  A server imports only the modules it serves from.
"""

from importlib import import_module

# Each exported name, and the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "crypto": "decrypt_record encrypt_record prp trapdoor",
        "errors": "AuthFailure BadMagic BadParameter DuplicateUser EditBoundExceeded EmptyKeyword FzError"
        " Truncated UnknownUser VersionUnsupported",
        "fuzzyset": "edit_distance fuzzy_set gram_fuzzy_set normalize_keyword wildcard_fuzzy_set",
        "index": "ListingIndex ResultSet SearchRequest TrieIndex blind_request build_listing_index build_trie_index"
        " decrypt_matches make_request search_listing search_trie symbolize unblind_request",
        "keys": "KeyMaterial keygen",
        "multiuser": "UserDirectory",
        "persist": "load_directory load_index load_keys save_directory save_index save_keys",
        "verifiable": "Verdict VerdictReason build_auth_trie search_with_proof verify",
    }.items()
    for name in names.split()
}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule that defines ``name``, and keep the name here for later reads."""
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
