/* digibox dashboard: a pure client of the public control surface.
 * State polling:  GET /ctl/status  (one JSON document, every 2 s)
 * Live stream:    GET /ctl/events  (SSE from the testbed event bus)
 */
"use strict";

const $ = (id) => document.getElementById(id);
const STATUS_INTERVAL_MS = 2000;
const TIMELINE_CAP = 200;

/* ---- /ctl/status polling ---- */

let prevShardStats = null; // previous per-shard counters, for rates
let prevStatusAt = 0;

async function pollStatus() {
  let st;
  try {
    const res = await fetch("/ctl/status");
    st = await res.json();
  } catch (err) {
    return; // the SSE badge reports connectivity
  }
  $("buildinfo").textContent =
    (st.version ? "v" + st.version : "") +
    (st.broker_addr ? " · mqtt " + st.broker_addr : "");
  $("models").textContent = st.models;
  $("pods").textContent = st.pods_running + (st.pods_pending ? " (+" + st.pods_pending + " pending)" : "");
  $("violations").textContent = st.violations;
  $("chaos").textContent = num(st.chaos.injected) + " / " + num(st.chaos.recovered);
  $("uptime").textContent = fmtUptime(st.uptime_sec);
  renderTopology(st.topology);
  renderPods(st.pods);
  renderShards(st.swarm);
  if (Array.isArray(st.latency) && st.latency.length) renderLatency(st.latency);
}

function num(v) { return Math.round(v || 0); }

function fmtUptime(sec) {
  if (!sec || sec < 0) return "–";
  if (sec < 90) return Math.round(sec) + "s";
  if (sec < 5400) return Math.round(sec / 60) + "m";
  return (sec / 3600).toFixed(1) + "h";
}

/* Fleet topology: the attach graph as a nested tree. Roots are models
 * that are no model's child. */
function renderTopology(topo) {
  const host = $("topology");
  const nodes = topo.nodes || [];
  const edges = topo.edges || [];
  const children = new Map();
  const isChild = new Set();
  for (const e of edges) {
    if (!children.has(e.parent)) children.set(e.parent, []);
    children.get(e.parent).push(e.child);
    isChild.add(e.child);
  }
  const byName = new Map(nodes.map((n) => [n.name, n]));
  const build = (name, seen) => {
    const li = document.createElement("li");
    const n = byName.get(name);
    const label = document.createElement("span");
    label.textContent = name;
    if (n && n.scene) label.className = "scene";
    li.appendChild(label);
    if (n) {
      const kind = document.createElement("span");
      kind.className = "kind";
      kind.textContent = " " + n.type;
      li.appendChild(kind);
    }
    const kids = children.get(name) || [];
    if (kids.length && !seen.has(name)) {
      seen.add(name);
      const ul = document.createElement("ul");
      for (const k of kids) ul.appendChild(build(k, seen));
      li.appendChild(ul);
    }
    return li;
  };
  const root = document.createElement("ul");
  for (const n of nodes) {
    if (!isChild.has(n.name)) root.appendChild(build(n.name, new Set()));
  }
  if (!nodes.length) root.innerHTML = "<li class='dim'>no models running</li>";
  host.replaceChildren(root);
}

function renderPods(pods) {
  const body = $("podtable").tBodies[0];
  body.replaceChildren();
  for (const p of pods || []) {
    const tr = document.createElement("tr");
    const phase = document.createElement("td");
    phase.textContent = p.phase;
    phase.className = p.phase;
    tr.appendChild(cell(p.name));
    tr.appendChild(phase);
    tr.appendChild(cell(p.node || ""));
    tr.appendChild(cell(String(p.restarts || 0)));
    body.appendChild(tr);
  }
}

function cell(text) {
  const td = document.createElement("td");
  td.textContent = text;
  return td;
}

/* Per-shard throughput bars: successive /ctl/status polls are deltaed
 * into msg/s per shard; a down shard renders red at zero. */
function renderShards(swarm) {
  const host = $("shards");
  const note = $("shardnote");
  const stats = swarm && swarm.stats;
  if (!stats || !stats.shards || !stats.shards.length) {
    host.replaceChildren();
    note.textContent = "no swarm run in flight — POST /ctl/swarm to start one";
    prevShardStats = null;
    return;
  }
  const now = performance.now();
  const down = new Set(stats.shards_down || []);
  const rates = stats.shards.map((s, i) => {
    if (!prevShardStats || !prevShardStats.shards[i] || now <= prevStatusAt) return 0;
    const d = s.publishes_in - prevShardStats.shards[i].publishes_in;
    return Math.max(0, (d * 1000) / (now - prevStatusAt));
  });
  prevShardStats = stats;
  prevStatusAt = now;
  const peak = Math.max(1, ...rates);
  host.replaceChildren();
  stats.shards.forEach((s, i) => {
    const bar = document.createElement("div");
    bar.className = "bar" + (down.has(i) ? " down" : "");
    const fill = document.createElement("div");
    fill.className = "fill";
    fill.style.height = down.has(i) ? "2px" : Math.max(2, (rates[i] / peak) * 100) + "%";
    const tag = document.createElement("div");
    tag.className = "tag";
    tag.textContent = "s" + i + (down.has(i) ? " down" : " " + Math.round(rates[i]));
    bar.appendChild(fill);
    bar.appendChild(tag);
    host.appendChild(bar);
  });
  note.textContent =
    "failovers " + num(swarm.failovers) + " · shed " + num(swarm.shed) +
    " · redelivered " + num(stats.redelivered);
}

/* E2E latency heatlines: one track per topic class, p50 solid and p99
 * translucent, scaled to the slowest class's p99. */
function renderLatency(classes) {
  const host = $("latency");
  const peak = Math.max(1e-3, ...classes.map((c) => c.p99_ms));
  host.replaceChildren();
  for (const c of classes) {
    const row = document.createElement("div");
    row.className = "heatline";
    const cls = document.createElement("span");
    cls.className = "cls";
    cls.textContent = c.class;
    const track = document.createElement("div");
    track.className = "track";
    const p99 = document.createElement("div");
    p99.className = "p99";
    p99.style.width = Math.min(100, (c.p99_ms / peak) * 100) + "%";
    const p50 = document.createElement("div");
    p50.className = "p50";
    p50.style.width = Math.min(100, (c.p50_ms / peak) * 100) + "%";
    track.appendChild(p99);
    track.appendChild(p50);
    const numEl = document.createElement("span");
    numEl.className = "num";
    numEl.textContent = c.p50_ms.toFixed(2) + " / " + c.p99_ms.toFixed(2);
    row.appendChild(cls);
    row.appendChild(track);
    row.appendChild(numEl);
    host.appendChild(row);
  }
}

/* ---- /ctl/events SSE ---- */

function describe(kind, d) {
  switch (kind) {
    case "fault":
      return { cls: d.action === "recover" ? "recover" : "inject", text: d.action + " " + d.fault + " → " + d.target };
    case "shard":
      return { cls: "shard", text: "shard " + d.shard + " " + d.state + (d.recovery_ms ? " (recovered in " + d.recovery_ms.toFixed(1) + " ms)" : "") };
    case "pod":
      return { cls: "pod", text: "pod " + d.pod + " → " + d.phase + (d.node ? " @ " + d.node : "") };
    case "client":
      return { cls: "client", text: "client " + d.client + " " + d.state };
    default:
      return null;
  }
}

function pushTimeline(ev) {
  let data;
  try { data = JSON.parse(ev.data); } catch (err) { return; }
  const desc = describe(data.kind, data.data || {});
  if (!desc) return;
  const li = document.createElement("li");
  const t = document.createElement("span");
  t.className = "t";
  t.textContent = new Date(data.at_ms).toISOString().slice(11, 23);
  const body = document.createElement("span");
  body.className = desc.cls;
  body.textContent = desc.text;
  li.appendChild(t);
  li.appendChild(body);
  const host = $("timeline");
  host.prepend(li);
  while (host.children.length > TIMELINE_CAP) host.removeChild(host.lastChild);
}

function connect() {
  const es = new EventSource("/ctl/events");
  es.onopen = () => {
    $("conn").textContent = "live";
    $("conn").className = "badge on";
  };
  es.onerror = () => {
    $("conn").textContent = "reconnecting…";
    $("conn").className = "badge off";
  };
  for (const kind of ["fault", "shard", "pod", "client"]) {
    es.addEventListener(kind, pushTimeline);
  }
}

pollStatus();
setInterval(pollStatus, STATUS_INTERVAL_MS);
connect();
