import importlib
import inspect
import pkgutil
import typing

import stallings


def _library_modules():
    for info in pkgutil.walk_packages(stallings.__path__, "stallings."):
        if info.name != "stallings.__main__":
            yield importlib.import_module(info.name)
    yield stallings


def _annotated_objects():
    """Every function, class and method defined in the library."""
    for module in _library_modules():
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                yield f"{module.__name__}.{name}", obj
                for attr, member in vars(obj).items():
                    if isinstance(member, (staticmethod, classmethod)):
                        member = member.__func__
                    elif isinstance(member, property):
                        member = member.fget
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_every_annotation_resolves():
    """Each annotation names something its module can see."""
    objects = list(_annotated_objects())
    assert len(objects) > 200
    failures = []
    for qualname, obj in objects:
        try:
            typing.get_type_hints(obj)
        except Exception as exc:  # report them all, not just the first
            failures.append(f"{qualname}: {type(exc).__name__}: {exc}")
    assert not failures, "\n".join(failures)
