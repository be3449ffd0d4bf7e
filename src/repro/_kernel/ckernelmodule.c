/* Compiled tier for the discrete-event simulation kernel.
 *
 * `repro._ckernel` provides `KernelCore`, a C implementation of the
 * EventQueue + Simulator run loop from `repro.simulation` with identical
 * observable semantics:
 *
 *   - events ordered by (time, priority, seq); seq is a monotonically
 *     increasing insertion counter, so ordering is fully deterministic;
 *   - cancelled events stay in the heap and are dropped lazily;
 *   - the run loop dispatches every event tied at the current timestamp in
 *     one batch, re-checking stop / max-events between callbacks;
 *   - error messages match the pure-python kernel byte for byte, so tests
 *     written against the pure tier pass unchanged.
 *
 * Event times are C doubles.  The pure kernel can in principle carry any
 * python number through the heap, but every in-repo scheduling call site
 * produces floats (verified by the equivalence suite), so the layouts agree
 * bit for bit and result digests are identical across tiers.
 *
 * The type is deliberately a superset of both EventQueue (push/pop/
 * peek_time/cancel/clear/len) and the Simulator scheduling surface
 * (schedule/schedule_at/run/stop/now/processed): `_CompiledSimulator` in
 * `repro.simulation.engine` binds these methods directly as instance
 * attributes so hot call sites skip a python-level dispatch layer.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>

/* ------------------------------------------------------------------ */
/* CEvent                                                             */
/* ------------------------------------------------------------------ */

typedef struct {
    PyObject_HEAD
    double time;
    long priority;
    long long seq;
    PyObject *callback; /* strong; never NULL after init (may be None) */
    PyObject *label;    /* strong; never NULL after init */
    char cancelled;
} CEvent;

static PyTypeObject CEvent_Type;

#define CEvent_Check(op) Py_IS_TYPE((op), &CEvent_Type)

/* Recycling dead events sidesteps both the GC allocator round-trip and the
 * generation-0 collection pressure of two allocations per dispatched event
 * (the kernel.churn bench schedules a decoy per tick). */
#define CEVENT_FREELIST_MAX 512
static CEvent *cevent_freelist[CEVENT_FREELIST_MAX];
static int cevent_freelist_size = 0;

/* Interned keyword names, initialised in PyInit__ckernel. */
static PyObject *s_priority, *s_label, *s_callback, *s_until, *s_max_events;

/* Allocate (or recycle) an event; fields other than refcount are unset. */
static CEvent *
cevent_alloc(void)
{
    if (cevent_freelist_size > 0) {
        CEvent *ev = cevent_freelist[--cevent_freelist_size];
        Py_SET_REFCNT((PyObject *)ev, 1);
        PyObject_GC_Track((PyObject *)ev);
        return ev;
    }
    return (CEvent *)CEvent_Type.tp_alloc(&CEvent_Type, 0);
}

static PyObject *
cevent_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {"time", "priority", "seq", "callback", "label", NULL};
    double time = 0.0;
    long priority = 0;
    long long seq = 0;
    PyObject *callback = Py_None;
    PyObject *label = NULL;
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "d|lLOO", kwlist, &time,
                                     &priority, &seq, &callback, &label))
        return NULL;
    CEvent *self = type == &CEvent_Type ? cevent_alloc()
                                        : (CEvent *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->time = time;
    self->priority = priority;
    self->seq = seq;
    Py_INCREF(callback);
    self->callback = callback;
    if (label == NULL)
        label = PyUnicode_FromString("");
    else
        Py_INCREF(label);
    self->label = label;
    self->cancelled = 0;
    return (PyObject *)self;
}

static int
cevent_traverse(CEvent *self, visitproc visit, void *arg)
{
    Py_VISIT(self->callback);
    Py_VISIT(self->label);
    return 0;
}

static int
cevent_clear(CEvent *self)
{
    Py_CLEAR(self->callback);
    Py_CLEAR(self->label);
    return 0;
}

static void
cevent_dealloc(CEvent *self)
{
    PyObject_GC_UnTrack(self);
    cevent_clear(self);
    if (cevent_freelist_size < CEVENT_FREELIST_MAX) {
        cevent_freelist[cevent_freelist_size++] = self;
        return;
    }
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyObject *
cevent_cancel(CEvent *self, PyObject *Py_UNUSED(ignored))
{
    self->cancelled = 1;
    Py_RETURN_NONE;
}

static PyObject *
cevent_sort_key(CEvent *self, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("(dlL)", self->time, self->priority, self->seq);
}

static PyObject *
cevent_repr(CEvent *self)
{
    char buf[64];
    PyOS_snprintf(buf, sizeof(buf), "%g", self->time);
    int labelled = self->label != NULL ? PyObject_IsTrue(self->label) : 0;
    if (labelled < 0)
        return NULL;
    PyObject *label_part;
    if (labelled) {
        PyObject *label_repr = PyObject_Repr(self->label);
        if (label_repr == NULL)
            return NULL;
        label_part = PyUnicode_FromFormat(" %U", label_repr);
        Py_DECREF(label_repr);
    }
    else {
        label_part = PyUnicode_FromString("");
    }
    if (label_part == NULL)
        return NULL;
    PyObject *out = PyUnicode_FromFormat("<Event t=%s prio=%ld seq=%lld%U%s>", buf,
                                         self->priority, self->seq, label_part,
                                         self->cancelled ? " cancelled" : "");
    Py_DECREF(label_part);
    return out;
}

static PyObject *
cevent_richcompare(PyObject *a, PyObject *b, int op)
{
    if (op != Py_LT || !CEvent_Check(a) || !CEvent_Check(b))
        Py_RETURN_NOTIMPLEMENTED;
    CEvent *x = (CEvent *)a, *y = (CEvent *)b;
    int lt;
    if (x->time != y->time)
        lt = x->time < y->time;
    else if (x->priority != y->priority)
        lt = x->priority < y->priority;
    else
        lt = x->seq < y->seq;
    return PyBool_FromLong(lt);
}

static PyObject *
cevent_get_cancelled(CEvent *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(self->cancelled);
}

static int
cevent_set_cancelled(CEvent *self, PyObject *value, void *Py_UNUSED(closure))
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete cancelled");
        return -1;
    }
    int truth = PyObject_IsTrue(value);
    if (truth < 0)
        return -1;
    self->cancelled = (char)truth;
    return 0;
}

static PyMemberDef cevent_members[] = {
    {"time", T_DOUBLE, offsetof(CEvent, time), 0, "simulation time the event fires at"},
    {"priority", T_LONG, offsetof(CEvent, priority), 0, "tie-break priority"},
    {"seq", T_LONGLONG, offsetof(CEvent, seq), 0, "insertion sequence number"},
    {"callback", T_OBJECT_EX, offsetof(CEvent, callback), 0, "zero-argument callable"},
    {"label", T_OBJECT_EX, offsetof(CEvent, label), 0, "trace label"},
    {NULL},
};

static PyGetSetDef cevent_getset[] = {
    {"cancelled", (getter)cevent_get_cancelled, (setter)cevent_set_cancelled,
     "cancelled events stay in the heap but are skipped when popped", NULL},
    {NULL},
};

static PyMethodDef cevent_methods[] = {
    {"cancel", (PyCFunction)cevent_cancel, METH_NOARGS,
     "Mark the event as cancelled; it will be silently dropped."},
    {"sort_key", (PyCFunction)cevent_sort_key, METH_NOARGS,
     "Return the deterministic (time, priority, seq) ordering key."},
    {NULL},
};

static PyTypeObject CEvent_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.Event",
    .tp_basicsize = sizeof(CEvent),
    .tp_dealloc = (destructor)cevent_dealloc,
    .tp_repr = (reprfunc)cevent_repr,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "A scheduled callback handle (compiled tier).",
    .tp_traverse = (traverseproc)cevent_traverse,
    .tp_clear = (inquiry)cevent_clear,
    .tp_richcompare = cevent_richcompare,
    .tp_methods = cevent_methods,
    .tp_members = cevent_members,
    .tp_getset = cevent_getset,
    .tp_new = cevent_new,
};

/* ------------------------------------------------------------------ */
/* KernelCore                                                         */
/* ------------------------------------------------------------------ */

typedef struct {
    double time;
    long priority;
    long long seq;
    PyObject *ev; /* strong ref to a CEvent */
} HeapEntry;

typedef struct {
    PyObject_HEAD
    HeapEntry *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    long long seq;
    Py_ssize_t live;
    double now;
    long long processed;
    char running;
    char stop_requested;
} KernelCore;

static PyTypeObject KernelCore_Type;

static inline int
entry_lt(const HeapEntry *a, const HeapEntry *b)
{
    if (a->time != b->time)
        return a->time < b->time;
    if (a->priority != b->priority)
        return a->priority < b->priority;
    return a->seq < b->seq;
}

/* Append `item` (ownership of item.ev transferred in) and bubble it up. */
static int
heap_push(KernelCore *self, HeapEntry item)
{
    if (self->size == self->capacity) {
        Py_ssize_t cap = self->capacity ? self->capacity * 2 : 64;
        HeapEntry *heap = PyMem_Realloc(self->heap, (size_t)cap * sizeof(HeapEntry));
        if (heap == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        self->heap = heap;
        self->capacity = cap;
    }
    HeapEntry *heap = self->heap;
    Py_ssize_t pos = self->size++;
    while (pos > 0) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_lt(&item, &heap[parent]))
            break;
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
    return 0;
}

/* Remove and return the smallest entry; caller owns the returned ref. */
static HeapEntry
heap_pop_min(KernelCore *self)
{
    HeapEntry *heap = self->heap;
    HeapEntry result = heap[0];
    Py_ssize_t n = --self->size;
    if (n > 0) {
        HeapEntry last = heap[n];
        Py_ssize_t pos = 0, child;
        while ((child = 2 * pos + 1) < n) {
            if (child + 1 < n && entry_lt(&heap[child + 1], &heap[child]))
                child++;
            if (!entry_lt(&heap[child], &last))
                break;
            heap[pos] = heap[child];
            pos = child;
        }
        heap[pos] = last;
    }
    return result;
}

/* Drop cancelled events sitting at the heap top (lazy deletion). */
static void
core_purge_top(KernelCore *self)
{
    while (self->size > 0 && ((CEvent *)self->heap[0].ev)->cancelled) {
        HeapEntry e = heap_pop_min(self);
        Py_DECREF(e.ev);
    }
}

static PyObject *
core_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if ((args && PyTuple_GET_SIZE(args)) || (kwds && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "KernelCore() takes no arguments");
        return NULL;
    }
    KernelCore *self = (KernelCore *)type->tp_alloc(type, 0);
    if (self == NULL)
        return NULL;
    self->heap = NULL;
    self->size = 0;
    self->capacity = 0;
    self->seq = 0;
    self->live = 0;
    self->now = 0.0;
    self->processed = 0;
    self->running = 0;
    self->stop_requested = 0;
    return (PyObject *)self;
}

static int
core_traverse(KernelCore *self, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < self->size; i++)
        Py_VISIT(self->heap[i].ev);
    return 0;
}

static int
core_clear_refs(KernelCore *self)
{
    Py_ssize_t n = self->size;
    self->size = 0;
    self->live = 0;
    for (Py_ssize_t i = 0; i < n; i++)
        Py_CLEAR(self->heap[i].ev);
    return 0;
}

static void
core_dealloc(KernelCore *self)
{
    PyObject_GC_UnTrack(self);
    core_clear_refs(self);
    PyMem_Free(self->heap);
    self->heap = NULL;
    Py_TYPE(self)->tp_free((PyObject *)self);
}

/* Create the event, push it, return a new reference to it. */
static PyObject *
core_push_internal(KernelCore *self, double time, PyObject *callback,
                   long priority, PyObject *label)
{
    if (!(time >= 0.0 && time < Py_HUGE_VAL)) {
        /* NaN fails every comparison: it would never match the run loop's
         * same-time batch test and would hang it. */
        PyErr_SetString(PyExc_ValueError, time < 0.0
                        ? "cannot schedule an event at a negative time"
                        : "cannot schedule an event at a non-finite time");
        return NULL;
    }
    CEvent *ev = cevent_alloc();
    if (ev == NULL)
        return NULL;
    ev->time = time;
    ev->priority = priority;
    ev->seq = self->seq++;
    Py_INCREF(callback);
    ev->callback = callback;
    if (label == NULL)
        label = PyUnicode_FromString("");
    else
        Py_INCREF(label);
    ev->label = label;
    ev->cancelled = 0;
    HeapEntry item = {time, priority, ev->seq, (PyObject *)ev};
    Py_INCREF(ev); /* the heap's reference */
    if (heap_push(self, item) < 0) {
        Py_DECREF(ev);
        Py_DECREF(ev);
        return NULL;
    }
    self->live++;
    return (PyObject *)ev;
}

/* Shared fastcall argument parsing for push / schedule / schedule_at:
 * (time_or_delay, callback, *, priority=0, label=""). */
static int
parse_sched_args(PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames,
                 const char *name, PyObject **time_obj, PyObject **callback,
                 long *priority, PyObject **label)
{
    *time_obj = NULL;
    *callback = NULL;
    *priority = 0;
    *label = NULL;
    if (nargs > 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes at most 2 positional arguments", name);
        return -1;
    }
    if (nargs >= 1)
        *time_obj = args[0];
    if (nargs == 2)
        *callback = args[1];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *kw = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (kw == s_priority || PyUnicode_CompareWithASCIIString(kw, "priority") == 0) {
                PyObject *idx = PyNumber_Index(value);
                if (idx == NULL)
                    return -1;
                *priority = PyLong_AsLong(idx);
                Py_DECREF(idx);
                if (*priority == -1 && PyErr_Occurred())
                    return -1;
            }
            else if (kw == s_label || PyUnicode_CompareWithASCIIString(kw, "label") == 0) {
                *label = value;
            }
            else if (kw == s_callback || PyUnicode_CompareWithASCIIString(kw, "callback") == 0) {
                if (*callback != NULL) {
                    PyErr_Format(PyExc_TypeError,
                                 "%s() got multiple values for argument 'callback'", name);
                    return -1;
                }
                *callback = value;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "%s() got an unexpected keyword argument %R", name, kw);
                return -1;
            }
        }
    }
    if (*time_obj == NULL || *callback == NULL) {
        PyErr_Format(PyExc_TypeError, "%s() missing required arguments", name);
        return -1;
    }
    return 0;
}

static PyObject *
core_push(KernelCore *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *time_obj, *callback, *label;
    long priority;
    if (parse_sched_args(args, nargs, kwnames, "push", &time_obj, &callback,
                         &priority, &label) < 0)
        return NULL;
    double t = PyFloat_AsDouble(time_obj);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    return core_push_internal(self, t, callback, priority, label);
}

static PyObject *
core_schedule(KernelCore *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *time_obj, *callback, *label;
    long priority;
    if (parse_sched_args(args, nargs, kwnames, "schedule", &time_obj, &callback,
                         &priority, &label) < 0)
        return NULL;
    double delay = PyFloat_AsDouble(time_obj);
    if (delay == -1.0 && PyErr_Occurred())
        return NULL;
    if (delay < 0.0) {
        PyErr_SetString(PyExc_ValueError, "cannot schedule in the past (negative delay)");
        return NULL;
    }
    return core_push_internal(self, self->now + delay, callback, priority, label);
}

static PyObject *
core_schedule_at(KernelCore *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *time_obj, *callback, *label;
    long priority;
    if (parse_sched_args(args, nargs, kwnames, "schedule_at", &time_obj, &callback,
                         &priority, &label) < 0)
        return NULL;
    double t = PyFloat_AsDouble(time_obj);
    if (t == -1.0 && PyErr_Occurred())
        return NULL;
    if (t < self->now - 1e-12) {
        PyObject *now_obj = PyFloat_FromDouble(self->now);
        if (now_obj == NULL)
            return NULL;
        PyErr_Format(PyExc_ValueError, "cannot schedule at %S, current time is already %S",
                     time_obj, now_obj);
        Py_DECREF(now_obj);
        return NULL;
    }
    /* Clamp to now like the pure tier's max(time, now), which keeps NaN so
     * that the push rejects it. */
    return core_push_internal(self, t > self->now || isnan(t) ? t : self->now, callback,
                              priority, label);
}

static PyObject *
core_pop(KernelCore *self, PyObject *Py_UNUSED(ignored))
{
    while (self->size > 0) {
        HeapEntry e = heap_pop_min(self);
        CEvent *ev = (CEvent *)e.ev;
        if (ev->cancelled) {
            Py_DECREF(ev);
            continue;
        }
        self->live--;
        return (PyObject *)ev;
    }
    PyErr_SetString(PyExc_IndexError, "pop from an empty event queue");
    return NULL;
}

static PyObject *
core_peek_time(KernelCore *self, PyObject *Py_UNUSED(ignored))
{
    core_purge_top(self);
    if (self->size == 0)
        Py_RETURN_NONE;
    return PyFloat_FromDouble(self->heap[0].time);
}

static PyObject *
core_cancel(KernelCore *self, PyObject *event)
{
    if (CEvent_Check(event)) {
        CEvent *ev = (CEvent *)event;
        if (!ev->cancelled) {
            ev->cancelled = 1;
            self->live--;
        }
        Py_RETURN_NONE;
    }
    /* Duck-typed fallback (e.g. a pure-python Event passed across tiers). */
    PyObject *flag = PyObject_GetAttrString(event, "cancelled");
    if (flag == NULL)
        return NULL;
    int truth = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    if (truth < 0)
        return NULL;
    if (!truth) {
        PyObject *res = PyObject_CallMethod(event, "cancel", NULL);
        if (res == NULL)
            return NULL;
        Py_DECREF(res);
        self->live--;
    }
    Py_RETURN_NONE;
}

static PyObject *
core_clear(KernelCore *self, PyObject *Py_UNUSED(ignored))
{
    core_clear_refs(self);
    Py_RETURN_NONE;
}

static PyObject *
core_stop(KernelCore *self, PyObject *Py_UNUSED(ignored))
{
    self->stop_requested = 1;
    Py_RETURN_NONE;
}

static PyObject *
core_run(KernelCore *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    PyObject *until_obj = Py_None;
    PyObject *max_events_obj = Py_None;
    if (nargs > 1) {
        PyErr_SetString(PyExc_TypeError, "run() takes at most 1 positional argument");
        return NULL;
    }
    if (nargs == 1)
        until_obj = args[0];
    if (kwnames != NULL) {
        Py_ssize_t nkw = PyTuple_GET_SIZE(kwnames);
        for (Py_ssize_t i = 0; i < nkw; i++) {
            PyObject *kw = PyTuple_GET_ITEM(kwnames, i);
            PyObject *value = args[nargs + i];
            if (kw == s_until || PyUnicode_CompareWithASCIIString(kw, "until") == 0) {
                if (nargs == 1) {
                    PyErr_SetString(PyExc_TypeError,
                                    "run() got multiple values for argument 'until'");
                    return NULL;
                }
                until_obj = value;
            }
            else if (kw == s_max_events || PyUnicode_CompareWithASCIIString(kw, "max_events") == 0) {
                max_events_obj = value;
            }
            else {
                PyErr_Format(PyExc_TypeError,
                             "run() got an unexpected keyword argument %R", kw);
                return NULL;
            }
        }
    }
    int has_limit = 0;
    double until_d = 0.0, limit = 0.0;
    if (until_obj != Py_None) {
        until_d = PyFloat_AsDouble(until_obj);
        if (until_d == -1.0 && PyErr_Occurred())
            return NULL;
        has_limit = 1;
        limit = until_d + 1e-12;
    }
    int has_budget = 0;
    long long remaining = 0;
    if (max_events_obj != Py_None) {
        PyObject *idx = PyNumber_Index(max_events_obj);
        if (idx == NULL)
            return NULL;
        remaining = PyLong_AsLongLong(idx);
        Py_DECREF(idx);
        if (remaining == -1 && PyErr_Occurred())
            return NULL;
        has_budget = 1;
    }
    if (self->running) {
        PyErr_SetString(PyExc_RuntimeError,
                        "simulator is already running (re-entrant run())");
        return NULL;
    }
    self->running = 1;
    self->stop_requested = 0;
    int failed = 0;
    while (self->size > 0) {
        CEvent *head = (CEvent *)self->heap[0].ev;
        if (head->cancelled) {
            HeapEntry e = heap_pop_min(self);
            Py_DECREF(e.ev);
            continue;
        }
        double now = self->heap[0].time;
        if (has_limit && now > limit) {
            self->now = until_d;
            goto done;
        }
        self->now = now;
        /* Batched same-time dispatch, mirroring Simulator.run(). */
        while (self->size > 0 && self->heap[0].time == now) {
            HeapEntry e = heap_pop_min(self);
            CEvent *ev = (CEvent *)e.ev;
            if (ev->cancelled) {
                Py_DECREF(ev);
                continue;
            }
            self->live--;
            PyObject *res = PyObject_CallNoArgs(ev->callback);
            Py_DECREF(ev);
            if (res == NULL) {
                failed = 1;
                goto done;
            }
            Py_DECREF(res);
            self->processed++;
            if (self->stop_requested)
                goto done;
            if (has_budget && --remaining <= 0)
                goto done;
        }
    }
    /* Queue fully drained: advance the clock to the horizon. */
    if (has_limit && until_d > self->now)
        self->now = until_d;
done:
    self->running = 0;
    if (failed)
        return NULL;
    return PyFloat_FromDouble(self->now);
}

static Py_ssize_t
core_len(KernelCore *self)
{
    return self->live > 0 ? self->live : 0;
}

static int
core_bool(KernelCore *self)
{
    core_purge_top(self);
    return self->size > 0;
}

static PyObject *
core_get_now(KernelCore *self, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(self->now);
}

static PyObject *
core_get_processed(KernelCore *self, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(self->processed);
}

static int
core_set_processed(KernelCore *self, PyObject *value, void *Py_UNUSED(closure))
{
    if (value == NULL) {
        PyErr_SetString(PyExc_AttributeError, "cannot delete processed");
        return -1;
    }
    PyObject *idx = PyNumber_Index(value);
    if (idx == NULL)
        return -1;
    long long processed = PyLong_AsLongLong(idx);
    Py_DECREF(idx);
    if (processed == -1 && PyErr_Occurred())
        return -1;
    self->processed = processed;
    return 0;
}

static PyObject *
core_get_running(KernelCore *self, void *Py_UNUSED(closure))
{
    return PyBool_FromLong(self->running);
}

static PyObject *
core_repr(KernelCore *self)
{
    char now_buf[64];
    PyOS_snprintf(now_buf, sizeof(now_buf), "%.3f", self->now);
    return PyUnicode_FromFormat("KernelCore(now=%s, pending=%zd)", now_buf,
                                core_len(self));
}

static PyMethodDef core_methods[] = {
    {"push", (PyCFunction)(void (*)(void))core_push, METH_FASTCALL | METH_KEYWORDS,
     "push(time, callback, *, priority=0, label='') -> Event"},
    {"schedule", (PyCFunction)(void (*)(void))core_schedule, METH_FASTCALL | METH_KEYWORDS,
     "schedule(delay, callback, *, priority=0, label='') -> Event"},
    {"schedule_at", (PyCFunction)(void (*)(void))core_schedule_at, METH_FASTCALL | METH_KEYWORDS,
     "schedule_at(time, callback, *, priority=0, label='') -> Event"},
    {"pop", (PyCFunction)core_pop, METH_NOARGS,
     "Remove and return the next non-cancelled event."},
    {"peek_time", (PyCFunction)core_peek_time, METH_NOARGS,
     "Time of the next non-cancelled event, or None when empty."},
    {"cancel", (PyCFunction)core_cancel, METH_O,
     "Cancel an event (lazy heap removal)."},
    {"clear", (PyCFunction)core_clear, METH_NOARGS, "Drop all pending events."},
    {"run", (PyCFunction)(void (*)(void))core_run, METH_FASTCALL | METH_KEYWORDS,
     "run(until=None, *, max_events=None) -> float"},
    {"stop", (PyCFunction)core_stop, METH_NOARGS,
     "Request the run loop to stop after the current event."},
    {NULL},
};

static PyGetSetDef core_getset[] = {
    {"now", (getter)core_get_now, NULL, "current simulation time", NULL},
    {"processed", (getter)core_get_processed, (setter)core_set_processed,
     "number of events dispatched so far", NULL},
    {"running", (getter)core_get_running, NULL, "True while run() is active", NULL},
    {NULL},
};

static PySequenceMethods core_as_sequence = {
    .sq_length = (lenfunc)core_len,
};

static PyNumberMethods core_as_number = {
    .nb_bool = (inquiry)core_bool,
};

static PyTypeObject KernelCore_Type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro._ckernel.KernelCore",
    .tp_basicsize = sizeof(KernelCore),
    .tp_dealloc = (destructor)core_dealloc,
    .tp_repr = (reprfunc)core_repr,
    .tp_as_number = &core_as_number,
    .tp_as_sequence = &core_as_sequence,
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "Compiled event queue + run loop (deterministic, digest-identical "
              "to the pure-python kernel).",
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear_refs,
    .tp_methods = core_methods,
    .tp_getset = core_getset,
    .tp_new = core_new,
};

/* ------------------------------------------------------------------ */
/* module                                                             */
/* ------------------------------------------------------------------ */

static struct PyModuleDef ckernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "repro._ckernel",
    .m_doc = "Compiled tier of the discrete-event simulation kernel.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__ckernel(void)
{
    if (PyType_Ready(&CEvent_Type) < 0 || PyType_Ready(&KernelCore_Type) < 0)
        return NULL;
    s_priority = PyUnicode_InternFromString("priority");
    s_label = PyUnicode_InternFromString("label");
    s_callback = PyUnicode_InternFromString("callback");
    s_until = PyUnicode_InternFromString("until");
    s_max_events = PyUnicode_InternFromString("max_events");
    if (!s_priority || !s_label || !s_callback || !s_until || !s_max_events)
        return NULL;
    PyObject *module = PyModule_Create(&ckernel_module);
    if (module == NULL)
        return NULL;
    Py_INCREF(&CEvent_Type);
    if (PyModule_AddObject(module, "Event", (PyObject *)&CEvent_Type) < 0) {
        Py_DECREF(&CEvent_Type);
        Py_DECREF(module);
        return NULL;
    }
    Py_INCREF(&KernelCore_Type);
    if (PyModule_AddObject(module, "KernelCore", (PyObject *)&KernelCore_Type) < 0) {
        Py_DECREF(&KernelCore_Type);
        Py_DECREF(module);
        return NULL;
    }
    if (PyModule_AddStringConstant(module, "KERNEL_TIER", "compiled") < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
