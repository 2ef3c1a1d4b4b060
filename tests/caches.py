"""Empties every lru_cache of littleq, for tests that count the work of a
command with cold caches or patch a function whose results a cache holds."""
import sys


def clear_littleq_caches():
    for name, module in list(sys.modules.items()):
        if name == "littleq" or name.startswith("littleq."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
