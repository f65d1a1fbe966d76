module mlds/rig

go 1.22

require mlds v0.0.0

replace mlds => ../
