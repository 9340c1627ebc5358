import builtins
import hashlib

from b5gcell.records import sha256


def test_sha256_picks_its_constructor_once(monkeypatch):
    # a failed import is not cached, so a lookup per call would import a missing
    # module again on every digest
    sha256(b"first")
    imports, real_import = [], builtins.__import__
    monkeypatch.setattr(builtins, "__import__",
                        lambda name, *args, **kw: imports.append(name) or real_import(name, *args,
                                                                                         **kw))
    digest = sha256(b"cell").hexdigest()
    monkeypatch.undo()
    assert imports == []
    assert digest == hashlib.sha256(b"cell").hexdigest()
