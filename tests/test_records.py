import builtins
import hashlib
import sys

from b5gcell.records import _sha256_type, sha256


def test_sha256_picks_its_constructor_once(monkeypatch):
    # the running version's built-in is asked for first (_sha2 holds SHA-256 from Python
    # 3.12 on, _sha256 before), so no process pays a failed import; and a failed import
    # is not cached, so a lookup per call would import a missing module on every digest
    imports, real_import = [], builtins.__import__
    monkeypatch.setattr(builtins, "__import__",
                        lambda name, *args, **kw: imports.append(name) or real_import(name, *args,
                                                                                         **kw))
    _sha256_type.cache_clear()
    try:
        digests = [sha256(b"cell").hexdigest() for _ in range(2)]
    finally:
        monkeypatch.undo()
    assert imports == ["_sha2" if sys.version_info >= (3, 12) else "_sha256"]
    assert digests == [hashlib.sha256(b"cell").hexdigest()] * 2
