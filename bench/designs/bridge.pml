/* The single-lane bridge components (paper Section 4), written against
 * the standard Plug-and-Play interfaces. Used by bridge.pnp and
 * bridge-broken.pnp: the two ADL files differ only in one send-port kind,
 * and these component models are shared verbatim. */

byte blueOn, redOn;

proctype Car(chan esig; chan edat; chan xsig; chan xdat; bit color) {
	mtype st;
	end: do
	:: edat!1,0,0,0,1;
	   esig?st,_;
	   if
	   :: color == 0 -> blueOn = blueOn + 1
	   :: else -> redOn = redOn + 1
	   fi;
	   if
	   :: color == 0 -> blueOn = blueOn - 1
	   :: else -> redOn = redOn - 1
	   fi;
	   xdat!1,0,0,0,1;
	   xsig?st,_
	od
}

proctype TurnController(chan ensig; chan endat; chan exsig; chan exdat;
                        byte n; bit startsActive) {
	byte i;
	mtype st;
	byte d, sid, sd;
	bit sel, rem;
	if
	:: startsActive -> skip
	:: else ->
	   i = 0;
	   do
	   :: i < n ->
	      exdat!0,0,0,0,1;
	      exsig?st,_;
	      exdat?d,sid,sd,sel,rem;
	      i = i + 1
	   :: else -> break
	   od
	fi;
	end: do
	:: i = 0;
	   do
	   :: i < n ->
	      endat!0,0,0,0,1;
	      ensig?st,_;
	      endat?d,sid,sd,sel,rem;
	      i = i + 1
	   :: else -> break
	   od;
	   i = 0;
	   do
	   :: i < n ->
	      exdat!0,0,0,0,1;
	      exsig?st,_;
	      exdat?d,sid,sd,sel,rem;
	      i = i + 1
	   :: else -> break
	   od
	od
}
