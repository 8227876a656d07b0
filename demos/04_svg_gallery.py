"""Render a small gallery of path diagrams next to this script.

Writes standalone SVG files into demos/out/: a Dyck path with its split
markers, a 2-Motzkin path showing all four step styles, and the
before/after of the two-stage injection.
"""

from pathlib import Path

from supercat import injection_g, parse_path, render_svg

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

gallery = {
    "dyck_markers.svg": (parse_path("UUDUDUDDUD", "dyck"), True),
    "motzkin_steps.svg": (parse_path("USWUDDSW", "motzkin"), False),
    "before_injection.svg": (parse_path("UUUDDUUDDD", "dyck"), True),
    "after_injection.svg": (injection_g(parse_path("UUUDDUUDDD", "dyck")), True),
}

for name, (path, with_markers) in gallery.items():
    target = out_dir / name
    target.write_text(render_svg(path, show_markers=with_markers))
    print(f"wrote {target} ({len(path)} steps)")
