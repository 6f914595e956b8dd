/* Component models of the benchmark's small-design family. All three
 * speak only the standard Plug-and-Play interfaces, so every connector
 * of pc.pnp and relay.pnp can be swapped without touching this file. */

byte sent, got;

proctype Producer(chan esig; chan edat; byte n) {
	byte i;
	mtype st;
	do
	:: i < n ->
	   sent = sent + 1;
	   edat!i + 1,0,0,0,1;
	   esig?st,_;
	   i = i + 1
	:: else -> break
	od
}

/* Relay forwards every message it receives; it may wait forever for
 * the next one, so its receive loop is a valid end state. */
proctype Relay(chan rsig; chan rdat; chan esig; chan edat) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	end: do
	:: rdat!0,0,0,0,1;
	   rsig?st,_;
	   rdat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC ->
	      edat!d,0,0,0,1;
	      esig?st,_
	   :: else
	   fi
	od
}

proctype Consumer(chan rsig; chan rdat; byte n) {
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	do
	:: got < n ->
	   rdat!0,0,0,0,1;
	   rsig?st,_;
	   rdat?d,sid,sd,sel,rem;
	   if
	   :: st == RECV_SUCC -> got = got + 1
	   :: else
	   fi
	:: else -> break
	od
}
