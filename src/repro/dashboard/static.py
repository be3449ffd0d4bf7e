"""The dashboard's single-page HTML view (inline CSS + JS, no assets).

Served verbatim at ``/``; everything live comes from the JSON endpoints
(``/api/status`` polled at ~1s, ``/api/events`` with a single bus-wide
``since_global`` cursor covering the feed topics plus every dynamic
``worker.*`` topic in one request per tick).
The palette is expressed as CSS custom properties with a
``prefers-color-scheme`` dark variant, so both modes come from the same
validated steps; text always wears ink tokens, never series colors.
"""

from __future__ import annotations

INDEX_HTML = """<!doctype html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>repro · live telemetry</title>
<style>
:root {
  --surface: #fcfcfb; --panel: #ffffff;
  --ink: #0b0b0b; --ink-2: #52514e; --ink-3: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --cat1: #2a78d6; --cat2: #eb6834; --cat3: #1baf7a; --cat4: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19; --panel: #222221;
    --ink: #ffffff; --ink-2: #c3c2b7; --ink-3: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --cat1: #3987e5; --cat2: #d95926; --cat3: #199e70; --cat4: #c98500;
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 20px; background: var(--surface); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, 'Segoe UI', sans-serif;
}
h1 { font-size: 18px; margin: 0 0 2px; }
.sub { color: var(--ink-2); font-size: 12px; margin-bottom: 16px; }
.tiles { display: flex; flex-wrap: wrap; gap: 10px; margin-bottom: 16px; }
.tile {
  background: var(--panel); border: 1px solid var(--grid); border-radius: 8px;
  padding: 10px 14px; min-width: 118px;
}
.tile .v { font-size: 22px; font-weight: 600; font-variant-numeric: tabular-nums; }
.tile .k { font-size: 11px; color: var(--ink-2); }
section {
  background: var(--panel); border: 1px solid var(--grid); border-radius: 8px;
  padding: 12px 14px; margin-bottom: 14px;
}
section h2 { font-size: 13px; margin: 0 0 8px; color: var(--ink-2);
  font-weight: 600; text-transform: uppercase; letter-spacing: .04em; }
.sweep { margin-bottom: 8px; }
.sweep .name { font-size: 12px; color: var(--ink); }
.sweep .meta { font-size: 11px; color: var(--ink-3);
  font-variant-numeric: tabular-nums; }
.bar { height: 6px; background: var(--grid); border-radius: 3px; overflow: hidden;
  margin-top: 3px; }
.bar > div { height: 100%; background: var(--cat1); border-radius: 3px;
  transition: width .3s; }
#spark { width: 100%; height: 64px; display: block; }
#feed { list-style: none; margin: 0; padding: 0; font-size: 12px;
  font-family: ui-monospace, 'SF Mono', Menlo, monospace; }
#feed li { padding: 1px 0; color: var(--ink-2);
  border-bottom: 1px dashed var(--grid); }
#feed li .t { color: var(--ink-3); margin-right: 6px; }
select {
  background: var(--panel); color: var(--ink); border: 1px solid var(--baseline);
  border-radius: 6px; padding: 4px 8px; font: inherit; margin-bottom: 10px;
}
#gantt { width: 100%; overflow-x: auto; background: #fcfcfb;
  border-radius: 6px; border: 1px solid var(--grid); }
.err { color: var(--cat2); font-size: 12px; }
table { width: 100%; border-collapse: collapse; font-size: 12px;
  font-variant-numeric: tabular-nums; }
th { text-align: left; color: var(--ink-2); font-weight: 600;
  border-bottom: 1px solid var(--baseline); padding: 2px 8px 2px 0; }
td { border-bottom: 1px dashed var(--grid); padding: 2px 8px 2px 0;
  color: var(--ink); }
td.mono { font-family: ui-monospace, 'SF Mono', Menlo, monospace; }
.occ { display: inline-block; width: 64px; height: 6px; background: var(--grid);
  border-radius: 3px; overflow: hidden; vertical-align: middle;
  margin-right: 6px; }
.occ > div { height: 100%; background: var(--cat3); }
</style>
</head>
<body>
<h1>repro · live telemetry</h1>
<div class="sub" id="sub">connecting…</div>

<div class="tiles">
  <div class="tile"><div class="v" id="t-workers">–</div><div class="k">workers</div></div>
  <div class="tile"><div class="v" id="t-pending">–</div><div class="k">queue pending</div></div>
  <div class="tile"><div class="v" id="t-running">–</div><div class="k">running</div></div>
  <div class="tile"><div class="v" id="t-done">–</div><div class="k">cells done</div></div>
  <div class="tile"><div class="v" id="t-rate">–</div><div class="k">cells / s</div></div>
  <div class="tile"><div class="v" id="t-steals">–</div><div class="k">steals</div></div>
  <div class="tile"><div class="v" id="t-events">–</div><div class="k">events published</div></div>
</div>

<section>
  <h2>Sweeps</h2>
  <div id="sweeps"><span class="err" id="nosweeps">no sweeps observed yet</span></div>
</section>

<section>
  <h2>Workers</h2>
  <div id="workers"><span class="err" id="noworkers">no workers connected</span></div>
</section>

<section>
  <h2>Queue depth</h2>
  <svg id="spark" preserveAspectRatio="none" viewBox="0 0 600 64"></svg>
</section>

<section>
  <h2>Gantt explorer</h2>
  <select id="scenario"></select>
  <div id="gantt"><span class="err">pick a scenario</span></div>
</section>

<section>
  <h2>Events</h2>
  <ul id="feed"></ul>
</section>

<script>
"use strict";
const $ = id => document.getElementById(id);
const fmt = v => (v === undefined || v === null) ? "–"
  : (typeof v === "number" && !Number.isInteger(v)) ? v.toFixed(1) : String(v);
let eventCursor = 0;       // bus-wide gseq cursor for /api/events
const queueDepths = [];    // recent pending+running samples
const feedTopics = ["scheduler", "scheduler.workers", "scheduler.assignments",
                    "scheduler.spans", "sweep", "runtime", "worker.*"];

function schedulerSource(status) {
  for (const key of Object.keys(status.sources || {})) {
    const src = status.sources[key];
    if (src && src.kind === "scheduler-snapshot") return src;
  }
  return null;
}

function renderStatus(status) {
  $("sub").textContent = "schema v" + status.schema_version + " · " +
    Object.keys(status.topics || {}).length + " topics · " +
    new Date(status.time * 1000).toLocaleTimeString();
  $("t-events").textContent = fmt(status.published);
  const sched = schedulerSource(status);
  if (sched) {
    $("t-workers").textContent = fmt(Object.keys(sched.workers || {}).length);
    renderWorkers(sched.workers || {});
    const q = sched.queue || {};
    $("t-pending").textContent = fmt(q.pending);
    $("t-running").textContent = fmt(q.running);
    const st = (sched.stats && sched.stats.counters) || {};
    $("t-steals").textContent = fmt(st.steals);
    if (q.pending !== undefined) {
      queueDepths.push((q.pending || 0) + (q.running || 0));
      if (queueDepths.length > 240) queueDepths.shift();
      renderSpark();
    }
  }
  const sweeps = Object.values(status.sweeps || {});
  let done = 0, rate = 0;
  const box = $("sweeps");
  if (sweeps.length) {
    box.innerHTML = "";
    for (const s of sweeps) {
      done += s.done; rate += s.finished ? 0 : (s.cells_per_second || 0);
      const div = document.createElement("div");
      div.className = "sweep";
      const pct = s.total ? Math.round(100 * s.done / s.total) : 0;
      div.innerHTML = '<span class="name"></span> <span class="meta">' +
        s.done + "/" + s.total + " · " + (s.errors || 0) + " err · " +
        (s.cached || 0) + " cached · " +
        (s.cells_per_second || 0).toFixed(1) + " cells/s</span>" +
        '<div class="bar"><div style="width:' + pct + '%"></div></div>';
      div.querySelector(".name").textContent = s.experiment;
      box.appendChild(div);
    }
  }
  $("t-done").textContent = fmt(done);
  $("t-rate").textContent = rate.toFixed(1);
}

function renderWorkers(workers) {
  const names = Object.keys(workers).sort();
  const box = $("workers");
  if (!names.length) {
    box.innerHTML = '<span class="err">no workers connected</span>';
    return;
  }
  const rows = names.map(name => {
    const w = workers[name];
    const occ = w.occupancy === null || w.occupancy === undefined
      ? null : Math.max(0, Math.min(1, w.occupancy));
    const pct = occ === null ? 0 : Math.round(occ * 100);
    return "<tr><td class='mono'></td><td>" + fmt(w.assignments) + "</td>" +
      "<td>" + (w.busy_seconds || 0).toFixed(2) + "</td>" +
      "<td>" + (w.idle_seconds || 0).toFixed(2) + "</td>" +
      "<td><span class='occ'><div style='width:" + pct + "%'></div></span>" +
      (occ === null ? "–" : pct + "%") + "</td>" +
      "<td>" + fmt(w.cells) + "</td>" +
      "<td>" + fmt(w.events_forwarded) +
      ((w.events_dropped || 0) ? " (" + w.events_dropped + " dropped)" : "") +
      "</td><td>" + (w.last_seen_age || 0).toFixed(1) + "s</td></tr>";
  });
  box.innerHTML = "<table><thead><tr><th>worker</th><th>lease</th>" +
    "<th>busy s</th><th>idle s</th><th>occupancy</th>" +
    "<th>cells</th><th>events</th><th>seen</th></tr></thead><tbody>" +
    rows.join("") + "</tbody></table>";
  // worker ids are untrusted text: set them via textContent, never innerHTML
  const cells = box.querySelectorAll("td.mono");
  names.forEach((name, i) => { cells[i].textContent = name; });
}

function renderSpark() {
  const svg = $("spark");
  if (!queueDepths.length) return;
  const max = Math.max.apply(null, queueDepths.concat([1]));
  const w = 600, h = 64, n = queueDepths.length;
  const pts = queueDepths.map((d, i) =>
    (i * w / Math.max(n - 1, 1)).toFixed(1) + "," +
    (h - 4 - (d / max) * (h - 10)).toFixed(1)).join(" ");
  svg.innerHTML =
    '<line x1="0" y1="' + (h - 2) + '" x2="' + w + '" y2="' + (h - 2) +
    '" stroke="var(--baseline)" stroke-width="1"/>' +
    '<polyline points="' + pts +
    '" fill="none" stroke="var(--cat1)" stroke-width="2" ' +
    'stroke-linejoin="round" stroke-linecap="round"/>' +
    '<text x="2" y="10" fill="var(--ink-3)" font-size="9">max ' + max + "</text>";
}

async function pollEvents() {
  const feed = $("feed");
  try {
    // One cursor request per tick: only events newer than the last gseq
    // come back, so a long-running dashboard never re-downloads the ring.
    const res = await fetch("/api/events?topics=" +
                            encodeURIComponent(feedTopics.join(",")) +
                            "&since_global=" + eventCursor + "&limit=120");
    const data = await res.json();
    eventCursor = data.next || eventCursor;
    for (const ev of data.events || []) {
      const li = document.createElement("li");
      const p = ev.payload || {};
      const extra = Object.keys(p)
        .filter(k => k !== "schema_version" && k !== "kind")
        .slice(0, 6).map(k => k + "=" + JSON.stringify(p[k])).join(" ");
      li.innerHTML = '<span class="t"></span><span class="k"></span> ';
      li.querySelector(".t").textContent =
        new Date(ev.time * 1000).toLocaleTimeString() + " " + ev.topic;
      li.querySelector(".k").textContent = (p.kind || "?") + " " + extra;
      feed.insertBefore(li, feed.firstChild);
    }
  } catch (e) { /* a failed poll never kills the page */ }
  while (feed.children.length > 30) feed.removeChild(feed.lastChild);
}

async function poll() {
  try {
    const res = await fetch("/api/status");
    renderStatus(await res.json());
  } catch (e) {
    $("sub").textContent = "status poll failed: " + e;
  }
  await pollEvents();
  setTimeout(poll, 1000);
}

async function loadScenarios() {
  try {
    const res = await fetch("/api/scenarios");
    const data = await res.json();
    const sel = $("scenario");
    sel.innerHTML = "";
    for (const s of data.scenarios || []) {
      if (!s.gantt) continue;
      const opt = document.createElement("option");
      opt.value = s.name;
      opt.textContent = s.name + "  [" + s.model + "]";
      sel.appendChild(opt);
    }
    sel.onchange = showGantt;
    if (sel.options.length) showGantt();
  } catch (e) {
    $("gantt").innerHTML = '<span class="err">scenario list failed</span>';
  }
}

async function showGantt() {
  const name = $("scenario").value;
  if (!name) return;
  $("gantt").innerHTML = '<span class="err">rendering…</span>';
  try {
    const res = await fetch("/gantt.svg?scenario=" + encodeURIComponent(name));
    if (!res.ok) throw new Error(await res.text());
    $("gantt").innerHTML = await res.text();
  } catch (e) {
    $("gantt").innerHTML = '<span class="err">gantt failed: ' + e + "</span>";
  }
}

loadScenarios();
poll();
</script>
</body>
</html>
"""
